package tcp

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

// sackScoreboard is the sender-side view of receiver holdings. The zero
// value is an empty scoreboard.
type sackScoreboard struct {
	sacked     seqRuns
	rtxed      seqRuns // retransmitted, not yet cumulatively ACKed
	highSacked int64   // highest SACKed segment + 1 (exclusive)
}

// update records the blocks from one ACK.
func (sb *sackScoreboard) update(blocks [][2]int64, una int64) {
	for _, b := range blocks {
		if lo := max(b[0], una); lo < b[1] {
			sb.sacked.addRange(lo, b[1])
			sb.highSacked = max(sb.highSacked, b[1])
		}
	}
}

// advance drops scoreboard state below the new cumulative ACK point.
func (sb *sackScoreboard) advance(una int64) {
	sb.sacked.trim(una)
	sb.rtxed.trim(una)
	sb.highSacked = max(sb.highSacked, una)
}

// lost reports whether segment s should be treated as lost: SACKed data
// exists at least dupThresh above it.
func (sb *sackScoreboard) lost(s int64) bool {
	return sb.highSacked >= s+dupThresh && !sb.sacked.has(s)
}

// pipe estimates the segments in flight within [una, nxt): every
// retransmission, plus every segment that is neither SACKed nor lost.
// Below cut = highSacked-dupThresh+1 a segment is SACKed or lost unless it
// was retransmitted; from cut up nothing is lost, and only the
// dupThresh-1 segments below highSacked can be SACKed.
func (sb *sackScoreboard) pipe(una, nxt int64) int64 {
	cut := min(max(una, sb.highSacked-dupThresh+1), nxt)
	p := sb.rtxed.count(una, cut) + max(nxt-cut, 0)
	for s := cut; s < nxt && s < sb.highSacked; s++ {
		if sb.sacked.has(s) && !sb.rtxed.has(s) {
			p-- // at the receiver, not in flight
		}
	}
	return p
}

// nextHole returns the lowest segment in [una, limit) that is lost and not
// yet retransmitted, or -1: the first one the SACKed and retransmitted
// runs, walked together, leave uncovered below the lost/not-lost cut.
func (sb *sackScoreboard) nextHole(una, limit int64) int64 {
	limit = min(limit, sb.highSacked-dupThresh+1)
	for s, i, j := una, 0, 0; s < limit; {
		for i < len(sb.sacked) && sb.sacked[i][1] <= s {
			i++
		}
		for j < len(sb.rtxed) && sb.rtxed[j][1] <= s {
			j++
		}
		switch {
		case i < len(sb.sacked) && sb.sacked[i][0] <= s:
			s = sb.sacked[i][1]
		case j < len(sb.rtxed) && sb.rtxed[j][0] <= s:
			s = sb.rtxed[j][1]
		default:
			return s
		}
	}
	return -1
}

// reset clears everything (used on RTO, where go-back-N supersedes the
// scoreboard).
func (sb *sackScoreboard) reset() {
	sb.sacked, sb.rtxed, sb.highSacked = sb.sacked[:0], sb.rtxed[:0], 0
}

// --- Receiver-side block construction ---

// sackBlocks appends up to max SACK blocks to dst, read straight off the
// receiver's out-of-order runs: the run containing justArrived (if any)
// first, the others in descending order, per RFC 2018's freshness rule.
// The receiver passes the outgoing ACK's own (recycled) Sack slice as dst,
// so reporting blocks allocates nothing.
func sackBlocks(dst [][2]int64, ooo seqRuns, justArrived int64, max int) [][2]int64 {
	fresh := -1
	if max > 0 {
		fresh = ooo.find(justArrived)
	}
	if fresh >= 0 {
		dst = append(dst, ooo[fresh])
		max--
	}
	for i := len(ooo) - 1; i >= 0 && max > 0; i-- {
		if i != fresh {
			dst = append(dst, ooo[i])
			max--
		}
	}
	return dst
}
