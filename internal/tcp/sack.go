package tcp

import "slices"

// SACK support: the receiver reports which out-of-order segments it holds
// (up to three [start,end) blocks per ACK, most-recent first, per RFC
// 2018), and the sender keeps a scoreboard so recovery retransmits exactly
// the holes — several per round trip if need be — instead of Reno's one
// per recovery or NewReno's one per partial ACK.
//
// The sender side is a simplified RFC 6675 pipe algorithm:
//
//   - pipe = segments in [sndUna, sndNxt) that are neither SACKed nor
//     deemed lost, plus retransmissions still in flight;
//   - a segment is deemed lost when the scoreboard holds SACKed data at
//     least dupThresh segments above it;
//   - during recovery the sender transmits whenever pipe < cwnd, favouring
//     the lowest unretransmitted hole, then new data.

// dupThresh is the classic three-duplicate-ACK loss threshold, reused as
// the SACK "FackCount" distance.
const dupThresh = 3

// sackScoreboard is the sender-side view of receiver holdings.
type sackScoreboard struct {
	sacked     map[int64]bool
	rtxed      map[int64]bool // retransmitted, not yet cumulatively ACKed
	highSacked int64          // highest SACKed segment + 1 (exclusive)
}

func newScoreboard() *sackScoreboard {
	return &sackScoreboard{sacked: make(map[int64]bool), rtxed: make(map[int64]bool)}
}

// update records the blocks from one ACK and returns how many previously
// unknown segments were newly SACKed.
func (sb *sackScoreboard) update(blocks [][2]int64, una int64) int {
	newly := 0
	for _, b := range blocks {
		for s := b[0]; s < b[1]; s++ {
			if s < una || sb.sacked[s] {
				continue
			}
			sb.sacked[s] = true
			newly++
			if s+1 > sb.highSacked {
				sb.highSacked = s + 1
			}
		}
	}
	return newly
}

// advance drops scoreboard state below the new cumulative ACK point.
func (sb *sackScoreboard) advance(una int64) {
	for s := range sb.sacked {
		if s < una {
			delete(sb.sacked, s)
		}
	}
	for s := range sb.rtxed {
		if s < una {
			delete(sb.rtxed, s)
		}
	}
	if sb.highSacked < una {
		sb.highSacked = una
	}
}

// lost reports whether segment s should be treated as lost: SACKed data
// exists at least dupThresh above it.
func (sb *sackScoreboard) lost(s int64) bool {
	return !sb.sacked[s] && sb.highSacked >= s+dupThresh
}

// pipe estimates the segments in flight within [una, nxt).
func (sb *sackScoreboard) pipe(una, nxt int64) int64 {
	var p int64
	for s := una; s < nxt; s++ {
		switch {
		case sb.rtxed[s]:
			p++ // the retransmission is in flight
		case sb.sacked[s]:
			// at the receiver, not in flight
		case sb.lost(s):
			// presumed gone
		default:
			p++
		}
	}
	return p
}

// nextHole returns the lowest segment in [una, limit) that is lost and not
// yet retransmitted, or -1.
func (sb *sackScoreboard) nextHole(una, limit int64) int64 {
	for s := una; s < limit && s < sb.highSacked; s++ {
		if sb.lost(s) && !sb.rtxed[s] {
			return s
		}
	}
	return -1
}

// reset clears everything (used on RTO, where go-back-N supersedes the
// scoreboard).
func (sb *sackScoreboard) reset() {
	sb.sacked = make(map[int64]bool)
	sb.rtxed = make(map[int64]bool)
	sb.highSacked = 0
}

// --- Receiver-side block construction ---

// sackBlocks appends up to max SACK blocks built from the receiver's
// out-of-order set to dst: the block containing justArrived (if any)
// first, the remaining runs in descending order, per RFC 2018's freshness
// rule. The receiver passes the outgoing ACK's own (recycled) Sack slice
// as dst, so reporting blocks allocates nothing while the out-of-order
// set fits the stack buffer below.
func sackBlocks(dst [][2]int64, ooo map[int64]bool, justArrived int64, max int) [][2]int64 {
	if len(ooo) == 0 {
		return dst
	}
	var buf [32]int64
	segs := buf[:0]
	for s := range ooo {
		segs = append(segs, s)
	}
	slices.Sort(segs)

	n := 0
	fresh := [2]int64{-1, -1}
	if ooo[justArrived] && max > 0 {
		fresh = [2]int64{justArrived, justArrived + 1}
		for ooo[fresh[0]-1] {
			fresh[0]--
		}
		for ooo[fresh[1]] {
			fresh[1]++
		}
		dst = append(dst, fresh)
		n++
	}
	for i := len(segs) - 1; i >= 0 && n < max; i-- {
		end := segs[i] + 1
		for i > 0 && segs[i-1] == segs[i]-1 {
			i--
		}
		if run := [2]int64{segs[i], end}; run != fresh {
			dst = append(dst, run)
			n++
		}
	}
	return dst
}
