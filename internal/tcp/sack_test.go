package tcp

import (
	"testing"

	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

func TestSackBlocksConstruction(t *testing.T) {
	ooo := runsOf(map[int64]bool{5: true, 6: true, 7: true, 10: true, 12: true, 13: true})
	blocks := sackBlocks(nil, ooo, 10, 3)
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v", blocks)
	}
	// The run containing the fresh arrival (10) comes first.
	if blocks[0] != [2]int64{10, 11} {
		t.Errorf("first block = %v, want [10,11)", blocks[0])
	}
	// Remaining runs in descending order.
	if blocks[1] != [2]int64{12, 14} || blocks[2] != [2]int64{5, 8} {
		t.Errorf("blocks = %v", blocks)
	}
	// Cap respected.
	if got := sackBlocks(nil, runsOf(map[int64]bool{1: true, 3: true, 5: true, 7: true}), 7, 3); len(got) != 3 {
		t.Errorf("cap violated: %v", got)
	}
	if got := sackBlocks(nil, nil, 0, 3); got != nil {
		t.Errorf("empty ooo produced %v", got)
	}
}

func TestScoreboardUpdateAndPipe(t *testing.T) {
	var sb sackScoreboard
	sb.update([][2]int64{{5, 8}}, 0)
	sb.update([][2]int64{{5, 8}}, 0) // re-reporting changes nothing
	if n := sb.sacked.count(0, 100); n != 3 {
		t.Errorf("%d segments SACKed, want 3", n)
	}
	if sb.highSacked != 8 {
		t.Errorf("highSacked = %d", sb.highSacked)
	}
	// Segments 0..4 unsacked with highSacked 8: 0..4 where s+3 <= 8 are
	// lost (0..5 -> s <= 5). pipe over [0,8): lost 0..4 excluded, sacked
	// 5..7 excluded -> only segment 4? s=4: 8 >= 7 lost. So pipe = 0.
	if got := sb.pipe(0, 8); got != 0 {
		t.Errorf("pipe = %d, want 0", got)
	}
	// With un-sacked tail beyond highSacked: in flight.
	if got := sb.pipe(0, 12); got != 4 {
		t.Errorf("pipe = %d, want 4 (segments 8..11)", got)
	}
	// Retransmitting a hole adds it back to the pipe.
	if hole := sb.nextHole(0, 12); hole != 0 {
		t.Errorf("nextHole = %d, want 0", hole)
	}
	sb.rtxed.add(0)
	if got := sb.pipe(0, 12); got != 5 {
		t.Errorf("pipe after rtx = %d, want 5", got)
	}
	if hole := sb.nextHole(0, 12); hole != 1 {
		t.Errorf("nextHole after rtx = %d, want 1", hole)
	}
	// Advance clears below the new una.
	sb.advance(6)
	if sb.sacked.has(5) || sb.rtxed.has(0) {
		t.Error("advance did not clear old state")
	}
	if !sb.sacked.has(6) || !sb.sacked.has(7) {
		t.Error("advance dropped live state")
	}
}

func TestScoreboardLostRule(t *testing.T) {
	var sb sackScoreboard
	sb.update([][2]int64{{4, 5}}, 0)
	// highSacked = 5: lost(s) iff 5 >= s+3 -> s <= 2.
	for s, want := range map[int64]bool{0: true, 1: true, 2: true, 3: false} {
		if got := sb.lost(s); got != want {
			t.Errorf("lost(%d) = %v, want %v", s, got, want)
		}
	}
	if sb.lost(4) {
		t.Error("sacked segment reported lost")
	}
}

func TestSackRecoversMultipleLossesInOneRTT(t *testing.T) {
	// Drop three segments from one window; SACK should repair all of
	// them in a single recovery episode with no timeout. (Plain Reno
	// would collapse or time out here.)
	drops := map[int64]bool{30: false, 33: false, 36: false}
	c := newConn(Config{Flow: 1, Variant: Sack, TotalSegments: 400})
	c.fwd.drop = func(p *packet.Packet) bool {
		if p.IsAck() {
			return false
		}
		if done, ok := drops[p.Seq]; ok && !done {
			drops[p.Seq] = true
			return true
		}
		return false
	}
	c.snd.Start()
	c.sched.Run(units.Time(30 * units.Second))
	st := c.snd.Stats()
	if !c.snd.Finished() {
		t.Fatalf("SACK flow did not finish: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Errorf("SACK triple loss caused %d timeouts", st.Timeouts)
	}
	if st.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1", st.FastRecoveries)
	}
	if st.Retransmits != 3 {
		t.Errorf("Retransmits = %d, want exactly the 3 lost segments", st.Retransmits)
	}
}

func TestSackLosslessBehavesLikeReno(t *testing.T) {
	c := newConn(Config{Flow: 1, Variant: Sack, TotalSegments: 200})
	c.snd.Start()
	c.sched.Run(units.Time(30 * units.Second))
	st := c.snd.Stats()
	if !c.snd.Finished() || st.Retransmits != 0 || st.Timeouts != 0 {
		t.Errorf("lossless SACK flow misbehaved: %+v", st)
	}
}

func TestSackUnderRandomLoss(t *testing.T) {
	rng := sim.NewRNG(21)
	c := newConn(Config{Flow: 1, Variant: Sack, TotalSegments: 1000})
	c.fwd.drop = func(p *packet.Packet) bool { return !p.IsAck() && rng.Float64() < 0.03 }
	c.snd.Start()
	c.sched.Run(units.Time(120 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("SACK flow did not survive random loss: %+v", c.snd.Stats())
	}
	if c.rcv.NextExpected() != 1000 {
		t.Errorf("receiver at %d, want 1000", c.rcv.NextExpected())
	}
}

func TestSackFewerTimeoutsThanReno(t *testing.T) {
	// Same 2.5% random loss pattern; SACK should need materially fewer
	// timeouts than Reno to move the same data.
	run := func(v Variant) Stats {
		rng := sim.NewRNG(77)
		c := newConn(Config{Flow: 1, Variant: v, TotalSegments: 2000})
		c.fwd.drop = func(p *packet.Packet) bool { return !p.IsAck() && rng.Float64() < 0.025 }
		c.snd.Start()
		c.sched.Run(units.Time(300 * units.Second))
		if !c.snd.Finished() {
			t.Fatalf("%v flow did not finish: %+v", v, c.snd.Stats())
		}
		return c.snd.Stats()
	}
	reno := run(Reno)
	sack := run(Sack)
	if sack.Timeouts >= reno.Timeouts {
		t.Errorf("SACK timeouts (%d) not below Reno's (%d)", sack.Timeouts, reno.Timeouts)
	}
	// SACK retransmits only what was lost; Reno's go-back-N resends good
	// data after timeouts.
	if sack.Retransmits >= reno.Retransmits {
		t.Errorf("SACK retransmits (%d) not below Reno's (%d)", sack.Retransmits, reno.Retransmits)
	}
}

func TestSackCompletesFasterUnderLoss(t *testing.T) {
	run := func(v Variant) units.Time {
		rng := sim.NewRNG(99)
		c := newConn(Config{Flow: 1, Variant: v, TotalSegments: 1500})
		c.fwd.drop = func(p *packet.Packet) bool { return !p.IsAck() && rng.Float64() < 0.02 }
		c.snd.Start()
		c.sched.Run(units.Time(600 * units.Second))
		if !c.snd.Finished() {
			t.Fatalf("%v flow did not finish", v)
		}
		return c.snd.Stats().Completed
	}
	reno := run(Reno)
	sack := run(Sack)
	if sack >= reno {
		t.Errorf("SACK completion %v not before Reno %v", sack, reno)
	}
}

func TestVariantStringSack(t *testing.T) {
	if Sack.String() != "sack" {
		t.Errorf("Sack.String() = %q", Sack.String())
	}
}
