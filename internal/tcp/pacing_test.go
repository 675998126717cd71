package tcp

import (
	"testing"

	"bufsim/internal/packet"
	"bufsim/internal/units"
)

func TestPacedFlowCompletes(t *testing.T) {
	c := newConn(Config{Flow: 1, TotalSegments: 300, Paced: true})
	c.snd.Start()
	c.sched.Run(units.Time(60 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("paced flow did not finish: %+v", c.snd.Stats())
	}
	if c.rcv.NextExpected() != 300 {
		t.Errorf("receiver at %d, want 300", c.rcv.NextExpected())
	}
}

func TestPacingSpreadsSends(t *testing.T) {
	// Record send times; once SRTT is established, gaps between new-data
	// sends should cluster around srtt/window rather than arriving in
	// back-to-back bursts.
	c := newConn(Config{Flow: 1, TotalSegments: 400, MaxWindow: 20, Paced: true})
	var sendTimes []units.Time
	inner := c.fwd.dst
	c.fwd.dst = packet.HandlerFunc(func(p *packet.Packet) { inner.Handle(p) })
	origDrop := c.fwd.drop
	c.fwd.drop = func(p *packet.Packet) bool {
		if !p.IsAck() {
			sendTimes = append(sendTimes, c.sched.Now())
		}
		if origDrop != nil {
			return origDrop(p)
		}
		return false
	}
	c.snd.Start()
	c.sched.Run(units.Time(30 * units.Second))
	if !c.snd.Finished() {
		t.Fatal("flow did not finish")
	}
	// Look at steady-state sends (skip the unpaced pre-SRTT prefix).
	// With MaxWindow 20 and 20 ms RTT, the paced gap is 1 ms.
	var zeroGaps, total int
	for i := len(sendTimes) / 2; i < len(sendTimes)-1; i++ {
		gap := sendTimes[i+1].Sub(sendTimes[i])
		if gap < 100*units.Microsecond {
			zeroGaps++
		}
		total++
	}
	if total == 0 {
		t.Fatal("no steady-state sends observed")
	}
	if frac := float64(zeroGaps) / float64(total); frac > 0.05 {
		t.Errorf("%.0f%% of paced sends were back-to-back, want ~0", 100*frac)
	}
}

func TestUnpacedBurstsExist(t *testing.T) {
	// Sanity check of the previous test's discriminator: without pacing,
	// back-to-back sends are common (slow-start sends 2 per ACK).
	c := newConn(Config{Flow: 1, TotalSegments: 400, MaxWindow: 20})
	var sendTimes []units.Time
	c.fwd.drop = func(p *packet.Packet) bool {
		if !p.IsAck() {
			sendTimes = append(sendTimes, c.sched.Now())
		}
		return false
	}
	c.snd.Start()
	c.sched.Run(units.Time(30 * units.Second))
	var zeroGaps int
	for i := 0; i < len(sendTimes)-1; i++ {
		if sendTimes[i+1].Sub(sendTimes[i]) < 100*units.Microsecond {
			zeroGaps++
		}
	}
	if zeroGaps == 0 {
		t.Error("unpaced sender produced no back-to-back sends")
	}
}

func TestPacedRecoversFromLoss(t *testing.T) {
	dropped := false
	c := newConn(Config{Flow: 1, TotalSegments: 500, Paced: true})
	c.fwd.drop = func(p *packet.Packet) bool {
		if !p.IsAck() && p.Seq == 100 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	c.snd.Start()
	c.sched.Run(units.Time(60 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("paced flow did not recover: %+v", c.snd.Stats())
	}
	st := c.snd.Stats()
	if st.Retransmits == 0 {
		t.Error("loss never retransmitted")
	}
	if st.Timeouts != 0 {
		t.Errorf("paced single loss caused %d timeouts", st.Timeouts)
	}
}

func TestPacedThroughputMatchesWindow(t *testing.T) {
	// Pacing must not throttle below W/RTT: a MaxWindow-20 flow on a
	// 20 ms RTT should move ~1000 segments/s.
	c := newConn(Config{Flow: 1, TotalSegments: 5000, MaxWindow: 20, Paced: true})
	c.snd.Start()
	c.sched.Run(units.Time(20 * units.Second))
	if !c.snd.Finished() {
		t.Errorf("paced flow too slow: %d/5000 acked after 20s (want ~5s)",
			c.snd.sndUna)
	}
}
