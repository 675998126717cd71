package tcp

import (
	"testing"

	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// pipe is an infinite-bandwidth, fixed-delay path with programmable loss,
// for exercising protocol logic in isolation from link-rate effects.
type pipe struct {
	sched *sim.Scheduler
	delay units.Duration
	dst   packet.Handler
	drop  func(p *packet.Packet) bool
	count int64 // data packets offered
}

func (pp *pipe) Handle(p *packet.Packet) {
	if !p.IsAck() {
		pp.count++
	}
	if pp.drop != nil && pp.drop(p) {
		return
	}
	pp.sched.PostAfter(pp.delay, pp, 0, p)
}

// OnEvent delivers a packet at the far end of the pipe.
func (pp *pipe) OnEvent(_ int32, arg any) { pp.dst.Handle(arg.(*packet.Packet)) }

// conn wires a sender and receiver over two pipes with a 20 ms RTT.
type conn struct {
	sched *sim.Scheduler
	snd   *Sender
	rcv   *Receiver
	fwd   *pipe
	rev   *pipe
}

func newConn(cfg Config) *conn {
	s := sim.NewScheduler()
	fwd := &pipe{sched: s, delay: 10 * units.Millisecond}
	rev := &pipe{sched: s, delay: 10 * units.Millisecond}
	snd := NewSender(cfg, s, fwd)
	rcv := NewReceiver(cfg, s, rev)
	fwd.dst = rcv
	rev.dst = snd
	return &conn{sched: s, snd: snd, rcv: rcv, fwd: fwd, rev: rev}
}

func TestShortFlowCompletes(t *testing.T) {
	c := newConn(Config{Flow: 1, TotalSegments: 10})
	var senderDone, receiverDone units.Time = units.Never, units.Never
	c.snd.OnComplete = func(now units.Time) { senderDone = now }
	c.rcv.OnComplete = func(now units.Time) { receiverDone = now }
	c.snd.Start()
	c.sched.Run(units.Time(10 * units.Second))

	if !c.snd.Finished() {
		t.Fatal("sender did not finish")
	}
	if c.rcv.ReceivedSegments != 10 {
		t.Errorf("receiver got %d segments, want 10", c.rcv.ReceivedSegments)
	}
	if receiverDone == units.Never || senderDone == units.Never {
		t.Fatal("completion callbacks did not fire")
	}
	if receiverDone >= senderDone {
		t.Errorf("receiver completed at %v, after sender at %v", receiverDone, senderDone)
	}
	// 10 segments with IW=2 in slow start: windows 2,4,8 -> 3 RTTs of
	// 20 ms for the data, plus 10 ms for the last segment's one-way trip.
	if receiverDone < units.Time(40*units.Millisecond) || receiverDone > units.Time(120*units.Millisecond) {
		t.Errorf("completion at %v, want a few RTTs", receiverDone)
	}
	if st := c.snd.Stats(); st.Retransmits != 0 || st.Timeouts != 0 {
		t.Errorf("lossless flow retransmitted: %+v", st)
	}
}

func TestSlowStartDoublesPerRTT(t *testing.T) {
	c := newConn(Config{Flow: 1}) // long-lived
	c.snd.Start()
	// After ~1 RTT the initial window (2) is acked: cwnd 4. After 2: 8.
	c.sched.Run(units.Time(25 * units.Millisecond))
	if got := c.snd.Cwnd(); got < 3.9 || got > 4.1 {
		t.Errorf("cwnd after 1 RTT = %v, want 4", got)
	}
	c.sched.Run(units.Time(45 * units.Millisecond))
	if got := c.snd.Cwnd(); got < 7.9 || got > 8.1 {
		t.Errorf("cwnd after 2 RTTs = %v, want 8", got)
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	cfg := Config{Flow: 1, MaxWindow: 1 << 20}
	c := newConn(cfg)
	c.snd.Start()
	c.sched.Run(units.Time(30 * units.Millisecond))
	// Force CA from a known point (default variant: Reno).
	cc := c.snd.CC().(*renoCC)
	cc.ssthresh = 4
	cc.cwnd = 4
	start := c.snd.Cwnd()
	// Over the next RTT, cwnd should grow by ~1 segment.
	c.sched.Run(units.Time(50 * units.Millisecond))
	grew := c.snd.Cwnd() - start
	if grew < 0.8 || grew > 1.6 {
		t.Errorf("CA growth over 1 RTT = %v segments, want ~1", grew)
	}
}

func TestMaxWindowCaps(t *testing.T) {
	c := newConn(Config{Flow: 1, MaxWindow: 12})
	c.snd.Start()
	c.sched.Run(units.Time(2 * units.Second))
	if c.snd.Outstanding() > 12 {
		t.Errorf("outstanding = %d, exceeds MaxWindow 12", c.snd.Outstanding())
	}
	if c.snd.Cwnd() > 12 {
		t.Errorf("cwnd = %v, exceeds MaxWindow 12", c.snd.Cwnd())
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	dropSeq := int64(20)
	dropped := false
	c := newConn(Config{Flow: 1})
	c.fwd.drop = func(p *packet.Packet) bool {
		if !p.IsAck() && p.Seq == dropSeq && !dropped {
			dropped = true
			return true
		}
		return false
	}
	c.snd.Start()
	c.sched.Run(units.Time(2 * units.Second))
	st := c.snd.Stats()
	if !dropped {
		t.Fatal("test never dropped the segment")
	}
	if st.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1", st.FastRecoveries)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (single loss should not time out)", st.Timeouts)
	}
	if st.Retransmits != 1 {
		t.Errorf("Retransmits = %d, want 1", st.Retransmits)
	}
	// The stream must still be fully in-order at the receiver.
	if c.rcv.NextExpected() < dropSeq {
		t.Errorf("receiver stuck at %d", c.rcv.NextExpected())
	}
}

func TestWindowHalvesOnFastRetransmit(t *testing.T) {
	// Drop one segment; slow start keeps growing the window until the
	// third duplicate ACK arrives, so compare the post-recovery window
	// against the peak (the sawtooth's Wmax), which should halve.
	dropped := false
	c := newConn(Config{Flow: 1})
	c.fwd.drop = func(p *packet.Packet) bool {
		if !p.IsAck() && p.Seq == 40 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	c.snd.Start()
	peak := 0.0
	for c.snd.Stats().FastRecoveries == 0 && c.sched.Now() < units.Time(5*units.Second) {
		if c.snd.Cwnd() > peak {
			peak = c.snd.Cwnd()
		}
		if !c.sched.Step() {
			break
		}
	}
	// Run until recovery exits.
	for c.snd.cc.Recovering() && c.sched.Now() < units.Time(5*units.Second) {
		if !c.sched.Step() {
			break
		}
	}
	if !dropped {
		t.Fatal("loss never happened")
	}
	got := c.snd.Cwnd()
	if got < peak*0.35 || got > peak*0.65 {
		t.Errorf("cwnd after recovery = %v, want about half of peak %v", got, peak)
	}
}

func TestTimeoutRecovery(t *testing.T) {
	// Black-hole the path for a while: every data packet sent between
	// t=100ms and t=400ms is lost. The sender must eventually time out
	// and retransmit successfully.
	c := newConn(Config{Flow: 1, TotalSegments: 200})
	c.fwd.drop = func(p *packet.Packet) bool {
		now := c.sched.Now()
		return !p.IsAck() &&
			now > units.Time(100*units.Millisecond) &&
			now < units.Time(400*units.Millisecond)
	}
	c.snd.Start()
	c.sched.Run(units.Time(30 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("flow did not recover from blackout: una=%d nxt=%d stats=%+v",
			c.snd.sndUna, c.snd.sndNxt, c.snd.Stats())
	}
	if st := c.snd.Stats(); st.Timeouts == 0 {
		t.Errorf("expected at least one timeout, got %+v", st)
	}
	if c.rcv.ReceivedSegments < 200 {
		t.Errorf("receiver got %d segments, want >= 200", c.rcv.ReceivedSegments)
	}
}

func TestTimeoutSetsCwndToOne(t *testing.T) {
	c := newConn(Config{Flow: 1})
	c.fwd.drop = func(p *packet.Packet) bool { return !p.IsAck() && c.sched.Now() > units.Time(50*units.Millisecond) }
	c.snd.Start()
	for c.snd.Stats().Timeouts == 0 && c.sched.Step() {
	}
	if c.snd.Stats().Timeouts == 0 {
		t.Fatal("no timeout occurred")
	}
	if got := c.snd.Cwnd(); got != 1 {
		t.Errorf("cwnd after timeout = %v, want 1", got)
	}
	if c.snd.sndNxt != c.snd.sndUna+1 {
		t.Errorf("timeout did not go-back-N: una=%d nxt=%d", c.snd.sndUna, c.snd.sndNxt)
	}
}

func TestExponentialBackoff(t *testing.T) {
	c := newConn(Config{Flow: 1, TotalSegments: 5})
	c.fwd.drop = func(p *packet.Packet) bool { return !p.IsAck() } // total blackout
	c.snd.Start()
	var timeoutTimes []units.Time
	prev := int64(0)
	for c.sched.Now() < units.Time(20*units.Second) && c.sched.Step() {
		if n := c.snd.Stats().Timeouts; n > prev {
			prev = n
			timeoutTimes = append(timeoutTimes, c.sched.Now())
		}
	}
	if len(timeoutTimes) < 4 {
		t.Fatalf("want >= 4 timeouts, got %d", len(timeoutTimes))
	}
	g1 := timeoutTimes[1].Sub(timeoutTimes[0])
	g2 := timeoutTimes[2].Sub(timeoutTimes[1])
	g3 := timeoutTimes[3].Sub(timeoutTimes[2])
	if !(g2 >= g1*2*9/10 && g3 >= g2*2*9/10) {
		t.Errorf("timeout gaps not doubling: %v %v %v", g1, g2, g3)
	}
}

func TestRTTEstimation(t *testing.T) {
	c := newConn(Config{Flow: 1, TotalSegments: 100})
	c.snd.Start()
	c.sched.Run(units.Time(10 * units.Second))
	srtt := c.snd.SRTT()
	if srtt < 19*units.Millisecond || srtt > 22*units.Millisecond {
		t.Errorf("SRTT = %v, want ~20ms", srtt)
	}
	if c.snd.RTO() < minRTO {
		t.Errorf("RTO = %v below MinRTO", c.snd.RTO())
	}
}

func TestReceiverReassemblyOutOfOrder(t *testing.T) {
	s := sim.NewScheduler()
	var acks []int64
	out := packet.HandlerFunc(func(p *packet.Packet) { acks = append(acks, p.Ack) })
	r := NewReceiver(Config{Flow: 1, TotalSegments: 4}.withDefaults(), s, out)
	mk := func(seq int64) *packet.Packet {
		return &packet.Packet{Flow: 1, Seq: seq, Size: 1000}
	}
	r.Handle(mk(0)) // ack 1
	r.Handle(mk(2)) // dup ack 1
	r.Handle(mk(3)) // dup ack 1
	r.Handle(mk(1)) // ack 4 (drains out-of-order run)
	want := []int64{1, 1, 1, 4}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if r.CompletedAt == units.Never {
		t.Error("receiver did not complete")
	}
	if r.DupSegments != 0 {
		t.Errorf("DupSegments = %d, want 0", r.DupSegments)
	}
}

func TestReceiverCountsDuplicates(t *testing.T) {
	s := sim.NewScheduler()
	r := NewReceiver(Config{Flow: 1}.withDefaults(), s, packet.HandlerFunc(func(*packet.Packet) {}))
	mk := func(seq int64) *packet.Packet { return &packet.Packet{Flow: 1, Seq: seq, Size: 1000} }
	r.Handle(mk(0))
	r.Handle(mk(0)) // below cumulative point
	r.Handle(mk(5))
	r.Handle(mk(5)) // duplicate out-of-order
	if r.DupSegments != 2 {
		t.Errorf("DupSegments = %d, want 2", r.DupSegments)
	}
}

func TestDelayedAckCoalesces(t *testing.T) {
	cfg := Config{Flow: 1, TotalSegments: 100, DelayedAck: true}
	c := newConn(cfg)
	c.snd.Start()
	c.sched.Run(units.Time(10 * units.Second))
	if !c.snd.Finished() {
		t.Fatal("flow did not complete with delayed ACKs")
	}
	// With every-other-segment acking, ACK count is roughly half the
	// segment count (plus delayed-timer flushes).
	if c.rcv.AcksSent >= 80 {
		t.Errorf("AcksSent = %d, want well under the 100 segments", c.rcv.AcksSent)
	}
}

func TestDelayedAckTimerFlushesLoneSegment(t *testing.T) {
	s := sim.NewScheduler()
	var ackAt units.Time = units.Never
	out := packet.HandlerFunc(func(p *packet.Packet) { ackAt = s.Now() })
	r := NewReceiver(Config{Flow: 1, DelayedAck: true}.withDefaults(), s, out)
	r.Handle(&packet.Packet{Flow: 1, Seq: 0, Size: 1000})
	s.Run(units.Time(units.Second))
	if ackAt != units.Time(delAckTimeout) {
		t.Errorf("lone segment acked at %v, want %v", ackAt, delAckTimeout)
	}
}

func TestTahoeCollapsesWindowOnLoss(t *testing.T) {
	dropped := false
	c := newConn(Config{Flow: 1, Variant: Tahoe})
	c.fwd.drop = func(p *packet.Packet) bool {
		if !p.IsAck() && p.Seq == 30 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	c.snd.Start()
	for c.snd.Stats().FastRecoveries == 0 && c.sched.Step() {
	}
	if got := c.snd.Cwnd(); got != 1 {
		t.Errorf("Tahoe cwnd after loss = %v, want 1", got)
	}
}

func TestNewRenoPartialAckRetransmits(t *testing.T) {
	// Drop two segments from the same window; NewReno should recover
	// both within one recovery episode (1 fast-retransmit + 1 partial-ACK
	// retransmission) without a timeout.
	drops := map[int64]bool{30: false, 34: false}
	c := newConn(Config{Flow: 1, Variant: NewReno, TotalSegments: 400})
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
		t.Fatalf("flow did not finish: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Errorf("NewReno double loss caused %d timeouts, want 0", st.Timeouts)
	}
	if st.FastRecoveries != 1 {
		t.Errorf("FastRecoveries = %d, want 1", st.FastRecoveries)
	}
}

func TestSenderRejectsDataPacket(t *testing.T) {
	c := newConn(Config{Flow: 1})
	defer func() {
		if recover() == nil {
			t.Error("sender accepted a data packet")
		}
	}()
	c.snd.Handle(&packet.Packet{Flow: 1, Seq: 0})
}

func TestReceiverRejectsAck(t *testing.T) {
	c := newConn(Config{Flow: 1})
	defer func() {
		if recover() == nil {
			t.Error("receiver accepted an ACK")
		}
	}()
	c.rcv.Handle(&packet.Packet{Flow: 1, Flags: packet.FlagACK})
}

func TestDoubleStartPanics(t *testing.T) {
	c := newConn(Config{Flow: 1, TotalSegments: 1})
	c.snd.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	c.snd.Start()
}

func TestVariantString(t *testing.T) {
	if Reno.String() != "reno" || Tahoe.String() != "tahoe" || NewReno.String() != "newreno" {
		t.Error("variant names wrong")
	}
	if Variant(9).String() != "variant(9)" {
		t.Error("unknown variant formatting wrong")
	}
}

func TestRandomLossStreamIntegrity(t *testing.T) {
	// Property-style: under 2% random loss the receiver must still get a
	// gapless stream and the flow must finish.
	rng := sim.NewRNG(123)
	c := newConn(Config{Flow: 1, TotalSegments: 500})
	c.fwd.drop = func(p *packet.Packet) bool { return !p.IsAck() && rng.Float64() < 0.02 }
	c.snd.Start()
	c.sched.Run(units.Time(120 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("flow did not finish under random loss: %+v", c.snd.Stats())
	}
	if c.rcv.NextExpected() != 500 {
		t.Errorf("receiver cumulative point = %d, want 500", c.rcv.NextExpected())
	}
}

func TestAckLossTolerated(t *testing.T) {
	rng := sim.NewRNG(77)
	c := newConn(Config{Flow: 1, TotalSegments: 300})
	c.rev.drop = func(p *packet.Packet) bool { return rng.Float64() < 0.05 }
	c.snd.Start()
	c.sched.Run(units.Time(60 * units.Second))
	if !c.snd.Finished() {
		t.Fatalf("flow did not finish under ACK loss: %+v", c.snd.Stats())
	}
}

// starter starts a sender when its event fires.
type starter struct{ snd *Sender }

func (st starter) OnEvent(int32, any) { st.snd.Start() }

func TestStartedStampsStats(t *testing.T) {
	c := newConn(Config{Flow: 1, TotalSegments: 2})
	c.sched.PostAt(units.Time(5*units.Second), starter{c.snd}, 0, nil)
	c.sched.Run(units.Time(10 * units.Second))
	st := c.snd.Stats()
	if st.Started != units.Time(5*units.Second) {
		t.Errorf("Started = %v, want 5s", st.Started)
	}
	if st.Completed == units.Never {
		t.Error("Completed not stamped")
	}
}
