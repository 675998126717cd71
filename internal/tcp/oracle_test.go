package tcp

import (
	"fmt"
	"testing"

	"bufsim/internal/packet"
	"bufsim/internal/sim"
)

// The loss path used to keep its state in map[int64]bool and answer every
// question with a loop over the segments of the window. Those
// implementations live on here, unchanged, as the oracles the run-based
// ones are checked against.

// mapScoreboard is sackScoreboard as it was on maps.
type mapScoreboard struct {
	sacked, rtxed map[int64]bool
	highSacked    int64
}

func newMapScoreboard() *mapScoreboard {
	return &mapScoreboard{sacked: map[int64]bool{}, rtxed: map[int64]bool{}}
}

func (sb *mapScoreboard) update(blocks [][2]int64, una int64) {
	for _, b := range blocks {
		for s := b[0]; s < b[1]; s++ {
			if s < una || sb.sacked[s] {
				continue
			}
			sb.sacked[s] = true
			if s+1 > sb.highSacked {
				sb.highSacked = s + 1
			}
		}
	}
}

func (sb *mapScoreboard) advance(una int64) {
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

func (sb *mapScoreboard) lost(s int64) bool {
	return !sb.sacked[s] && sb.highSacked >= s+dupThresh
}

func (sb *mapScoreboard) pipe(una, nxt int64) int64 {
	var p int64
	for s := una; s < nxt; s++ {
		switch {
		case sb.rtxed[s]:
			p++
		case sb.sacked[s]:
		case sb.lost(s):
		default:
			p++
		}
	}
	return p
}

func (sb *mapScoreboard) nextHole(una, limit int64) int64 {
	for s := una; s < limit && s < sb.highSacked; s++ {
		if sb.lost(s) && !sb.rtxed[s] {
			return s
		}
	}
	return -1
}

func (sb *mapScoreboard) reset() { *sb = *newMapScoreboard() }

// TestScoreboardMatchesMapReference drives both scoreboards through what a
// sender does to one — SACK blocks (stale ones included), cumulative ACKs
// that jump past highSacked, retransmissions that are SACKed afterwards,
// go-back-N resets that leave sndNxt below late SACKs — and compares every
// answer the congestion controller reads.
func TestScoreboardMatchesMapReference(t *testing.T) {
	for _, window := range []int{8, 40, 500} {
		rng := sim.NewRNG(int64(window))
		var sb sackScoreboard
		ref := newMapScoreboard()
		var una, nxt int64
		for step := 0; step < 3000; step++ {
			var what string
			switch op := rng.Intn(12); {
			case op < 4: // an ACK's worth of SACK blocks near the top of the window
				var blocks [][2]int64
				for i, n := 0, 1+rng.Intn(3); i < n; i++ {
					lo := una - 3 + int64(rng.Intn(window+6))
					blocks = append(blocks, [2]int64{lo, lo + int64(rng.Intn(1+window/4))})
				}
				what = fmt.Sprintf("update(%v, %d)", blocks, una)
				sb.update(blocks, una)
				ref.update(blocks, una)
			case op < 6: // a cumulative ACK, now and then far beyond anything SACKed
				una += int64(rng.Intn(1 + window/8))
				if rng.Intn(20) == 0 {
					una = max(una, sb.highSacked+int64(rng.Intn(4)))
				}
				what = fmt.Sprintf("advance(%d)", una)
				sb.advance(una)
				ref.advance(una)
			case op < 9: // retransmit the next hole, or any outstanding segment
				s := ref.nextHole(una, nxt)
				if s < 0 || rng.Intn(4) == 0 {
					s = una + int64(rng.Intn(window))
				}
				what = fmt.Sprintf("retransmit %d", s)
				sb.rtxed.add(s)
				ref.rtxed[s] = true
			case op < 11: // new data, or sndNxt rewound by a timeout
				nxt = max(nxt, una) + int64(rng.Intn(1+window/4))
				if rng.Intn(10) == 0 {
					nxt = una
				}
				what = fmt.Sprintf("sndNxt = %d", nxt)
			default:
				if rng.Intn(8) > 0 {
					continue
				}
				what = "reset"
				sb.reset()
				ref.reset()
			}
			if sb.highSacked != ref.highSacked {
				t.Fatalf("window %d step %d, after %s: highSacked %d, reference %d", window, step, what, sb.highSacked, ref.highSacked)
			}
			for _, hi := range []int64{nxt, una + int64(rng.Intn(window+1))} {
				if got, want := sb.pipe(una, hi), ref.pipe(una, hi); got != want {
					t.Fatalf("window %d step %d, after %s: pipe(%d, %d) = %d, reference %d\nsacked %v rtxed %v highSacked %d",
						window, step, what, una, hi, got, want, sb.sacked, sb.rtxed, sb.highSacked)
				}
				if got, want := sb.nextHole(una, hi), ref.nextHole(una, hi); got != want {
					t.Fatalf("window %d step %d, after %s: nextHole(%d, %d) = %d, reference %d\nsacked %v rtxed %v highSacked %d",
						window, step, what, una, hi, got, want, sb.sacked, sb.rtxed, sb.highSacked)
				}
			}
			for s := una - 2; s < una+int64(window)+6; s++ {
				if got, want := sb.lost(s), ref.lost(s); got != want {
					t.Fatalf("window %d step %d, after %s: lost(%d) = %v, reference %v", window, step, what, s, got, want)
				}
			}
		}
	}
}

// mapReceiver is the receiver's reassembly as it was on a map, reduced to
// what an arrival does to the ACK stream and the counters (no delayed
// ACKs, so every arrival is acknowledged at once).
type mapReceiver struct {
	next int64
	ooo  map[int64]bool

	received, dup, acks, ceSeen int64
}

type ackRecord struct {
	ack  int64
	sack string
	ece  bool
}

func (r *mapReceiver) handle(seq int64, ce bool) ackRecord {
	if ce {
		r.ceSeen++
	}
	just := int64(-1)
	switch {
	case seq == r.next:
		r.next++
		r.received++
		for r.ooo[r.next] {
			delete(r.ooo, r.next)
			r.next++
		}
	case seq > r.next:
		if r.ooo[seq] {
			r.dup++
		} else {
			r.ooo[seq] = true
			r.received++
		}
		just = seq
	default:
		r.dup++
	}
	r.acks++
	return ackRecord{r.next, fmt.Sprint(sackBlocksReference(r.ooo, just, 3)), ce}
}

// TestReceiverMatchesMapReference feeds a SACK receiver an arrival
// sequence with loss, late retransmissions, reordering, duplicates and CE
// marks, and requires the ACK stream — cumulative point, SACK blocks in
// order, ECE — and the counters of the map receiver.
func TestReceiverMatchesMapReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := sim.NewRNG(seed)
		var got []ackRecord
		out := packet.HandlerFunc(func(p *packet.Packet) {
			got = append(got, ackRecord{p.Ack, fmt.Sprint(p.Sack), p.Flags&packet.FlagECE != 0})
		})
		rcv := NewReceiver(Config{Flow: 1, Variant: Sack}, sim.NewScheduler(), out)
		ref := &mapReceiver{ooo: map[int64]bool{}}
		var hi int64 // next never-sent segment
		var lost []int64
		for step := 0; step < 5000; step++ {
			seq := int64(-1)
			switch op := rng.Intn(20); {
			case op < 2: // lost: it arrives later, as a retransmission
				lost = append(lost, hi)
				hi++
				continue
			case op < 5 && len(lost) > 0: // a retransmission, not necessarily the oldest
				i := rng.Intn(len(lost))
				seq = lost[i]
				lost = append(lost[:i], lost[i+1:]...)
			case op < 7 && hi > 0: // a duplicate, or a straggler overtaken by its successors
				seq = max(0, hi-1-int64(rng.Intn(30)))
			default:
				seq = hi
				hi++
			}
			ce := rng.Intn(40) == 0
			var flags packet.Flags
			if ce {
				flags = packet.FlagCE
			}
			want := ref.handle(seq, ce)
			rcv.Handle(&packet.Packet{Flow: 1, Seq: seq, Flags: flags})
			if len(got) != int(ref.acks) || got[len(got)-1] != want {
				t.Fatalf("seed %d step %d, segment %d: ACK %+v, reference %+v", seed, step, seq, got[len(got)-1], want)
			}
		}
		if rcv.NextExpected() != ref.next || rcv.ReceivedSegments != ref.received || rcv.DupSegments != ref.dup ||
			rcv.AcksSent != ref.acks || rcv.CEMarksSeen != ref.ceSeen {
			t.Errorf("seed %d: counters next %d received %d dup %d acks %d ce %d, reference %+v", seed,
				rcv.NextExpected(), rcv.ReceivedSegments, rcv.DupSegments, rcv.AcksSent, rcv.CEMarksSeen, *ref)
		}
		if len(rcv.ooo) == 0 && len(ref.ooo) != 0 || ref.dup == 0 || ref.ceSeen == 0 {
			t.Errorf("seed %d: the sequence did not exercise the receiver (%d dups, %d CE, %d held)", seed, ref.dup, ref.ceSeen, len(ref.ooo))
		}
	}
}
