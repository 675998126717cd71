package tcp

import (
	"testing"

	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// BenchmarkLosslessTransfer measures the full protocol hot path — send,
// receive, ACK, window growth — over an ideal pipe, in simulated segments
// per benchmark op (one op = one 1000-segment transfer).
func BenchmarkLosslessTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := newConn(Config{Flow: 1, TotalSegments: 1000})
		c.snd.Start()
		c.sched.Run(units.Time(60 * units.Second))
		if !c.snd.Finished() {
			b.Fatal("transfer did not finish")
		}
	}
}

// BenchmarkSackTransferUnderLoss measures SACK recovery machinery cost
// under 2% loss.
func BenchmarkSackTransferUnderLoss(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drop := 0
		c := newConn(Config{Flow: 1, Variant: Sack, TotalSegments: 1000})
		c.fwd.drop = func(p *packet.Packet) bool {
			if p.IsAck() {
				return false
			}
			drop++
			return drop%50 == 0
		}
		c.snd.Start()
		c.sched.Run(units.Time(300 * units.Second))
		if !c.snd.Finished() {
			b.Fatal("transfer did not finish")
		}
	}
}

// BenchmarkSackRecoveryWideWindow is SACK recovery where the window is
// wide: one flow holding 500 segments in flight at 1% loss, so every loss
// puts hundreds of segments between sndUna and sndNxt for the scoreboard
// to account for on each duplicate ACK (one op = one 20 000-segment
// transfer). This is the case the scoreboard's O(runs) pipe and nextHole
// are for; the benchmark workloads' 14-segment flows do not show it.
func BenchmarkSackRecoveryWideWindow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		drop := 0
		c := newConn(Config{Flow: 1, Variant: Sack, TotalSegments: 20000, MaxWindow: 500})
		c.fwd.drop = func(p *packet.Packet) bool {
			if p.IsAck() {
				return false
			}
			drop++
			return drop%100 == 0
		}
		c.snd.Start()
		c.sched.Run(units.Time(600 * units.Second))
		if !c.snd.Finished() {
			b.Fatal("transfer did not finish")
		}
	}
}

// BenchmarkScoreboardPipe is one pass of fillPipe's loop condition and
// hole search over a 500-segment window in recovery — five holes, two of
// them already retransmitted — on the run scoreboard and on the map
// scoreboard it replaced (oracle_test.go), whose cost is per segment of
// the window instead of per run.
func BenchmarkScoreboardPipe(b *testing.B) {
	const una, nxt = 1000, 1500
	blocks := [][2]int64{{1001, 1100}, {1101, 1200}, {1202, 1300}, {1301, 1400}, {1402, 1480}}
	var sb sackScoreboard
	ref := newMapScoreboard()
	sb.update(blocks, una)
	ref.update(blocks, una)
	for _, s := range []int64{1000, 1100} {
		sb.rtxed.add(s)
		ref.rtxed[s] = true
	}
	if sb.pipe(una, nxt) != ref.pipe(una, nxt) || sb.nextHole(una, nxt) != ref.nextHole(una, nxt) {
		b.Fatal("the two scoreboards disagree")
	}
	b.Run("runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += sb.pipe(una, nxt) + sb.nextHole(una, nxt)
		}
	})
	b.Run("map-reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += ref.pipe(una, nxt) + ref.nextHole(una, nxt)
		}
	})
}

// benchSink keeps the compiler from discarding a benchmarked call.
var benchSink int64
