package tcp

import (
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// BBRv1-style constants: the startup/drain gains, the PROBE_BW pacing
// cycle, filter windows and the inflight floor.
const (
	// bbrHighGain is 2/ln(2): fast enough to double delivered bandwidth
	// every round while pipe capacity is unknown.
	bbrHighGain = 2.885
	// bbrCwndGain caps inflight at this multiple of the estimated BDP
	// during PROBE_BW, absorbing delayed and stretched ACKs.
	bbrCwndGain = 2.0
	// bbrBwFilterLen is the windowed-max length of the delivery-rate
	// filter, in packet-timed rounds.
	bbrBwFilterLen = 10
	// bbrMinCwnd keeps enough inflight to merit ACK clocking.
	bbrMinCwnd = 4.0

	bbrMinRTTWindow     = 10 * units.Second
	bbrProbeRTTDuration = 200 * units.Millisecond
)

// bbrPacingCycle is the PROBE_BW gain cycle: probe above the estimated
// bandwidth for one round, drain the resulting queue the next, then
// cruise.
var bbrPacingCycle = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// bbrMode is the BBR state machine phase.
type bbrMode int

const (
	bbrStartup bbrMode = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

// bbrCC is a deterministic BBRv1-style model-based controller: it
// estimates the bottleneck bandwidth (windowed max of per-round
// delivery rate) and the propagation RTT (windowed min), paces at
// gain × btlBw, and caps inflight at cwndGain × BDP. Loss triggers
// retransmission — the sender still repairs holes and backs off its RTO
// — but does not shrink the model; only the model's own PROBE_RTT and
// post-timeout conservatism reduce the sending rate. This is the
// rate-driven regime whose buffer requirement the 2004 sqrt(n) rule
// does not describe.
type bbrCC struct {
	s   *Sender
	cfg Config

	mode bbrMode

	// Delivery accounting. A "round" is one full window of ACKs: it ends
	// when the cumulative point passes the sndNxt recorded at its start.
	delivered      int64 // cumulative segments ACKed
	haveRound      bool
	roundStart     units.Time
	roundDelivered int64
	roundEndSeq    int64
	rounds         int64

	// btlBw: windowed max filter over per-round delivery rates, in
	// segments/second.
	bwRing  [bbrBwFilterLen]float64
	bwCount int64

	// minRTT: windowed min filter with PROBE_RTT refresh.
	haveMinRTT bool
	minRTT     units.Duration
	minRTTAt   units.Time

	// Startup full-pipe detection: bandwidth stopped growing >= 25% per
	// round for three consecutive rounds.
	fullBw       bool
	fullBwBase   float64
	fullBwRounds int

	cycleIdx     int
	probeRTTDone units.Time

	// Loss bookkeeping (retransmission only; the model is untouched).
	inRecovery bool
	recover    int64
	// postTimeout caps inflight at bbrMinCwnd until the next round
	// completes, mirroring BBR's conservative RTO response.
	postTimeout bool
}

func (c *bbrCC) Init(s *Sender, cfg Config) {
	c.s = s
	c.cfg = cfg
}

// btlBw is the current bottleneck-bandwidth estimate in segments/sec.
func (c *bbrCC) btlBw() float64 {
	var max float64
	for _, bw := range c.bwRing {
		if bw > max {
			max = bw
		}
	}
	return max
}

func (c *bbrCC) pushBw(bw float64) {
	c.bwRing[c.bwCount%bbrBwFilterLen] = bw
	c.bwCount++
}

// bdp is the estimated bandwidth-delay product in segments.
func (c *bbrCC) bdp() float64 {
	return c.btlBw() * float64(c.minRTT) / float64(units.Second)
}

func (c *bbrCC) pacingGain() float64 {
	switch c.mode {
	case bbrStartup:
		return bbrHighGain
	case bbrDrain:
		return 1 / bbrHighGain
	case bbrProbeBW:
		return bbrPacingCycle[c.cycleIdx]
	default: // bbrProbeRTT
		return 1
	}
}

func (c *bbrCC) cwndGain() float64 {
	switch c.mode {
	case bbrStartup, bbrDrain:
		return bbrHighGain
	default:
		return bbrCwndGain
	}
}

func (c *bbrCC) Window() float64 {
	if c.mode == bbrProbeRTT {
		return bbrMinCwnd
	}
	bw := c.btlBw()
	if bw <= 0 || !c.haveMinRTT {
		// No model yet: ACK-clocked startup from the initial window.
		return max(initialCwnd, bbrMinCwnd)
	}
	w := c.cwndGain() * c.bdp()
	if c.postTimeout && w > bbrMinCwnd {
		w = bbrMinCwnd
	}
	if w < bbrMinCwnd {
		w = bbrMinCwnd
	}
	if w > float64(c.cfg.MaxWindow) {
		w = float64(c.cfg.MaxWindow)
	}
	return w
}

// Ssthresh: BBR has no slow-start threshold; report the window ceiling.
func (c *bbrCC) Ssthresh() float64 { return float64(c.cfg.MaxWindow) }

func (c *bbrCC) InSlowStart() bool { return c.mode == bbrStartup }
func (c *bbrCC) Recovering() bool  { return c.inRecovery }

func (c *bbrCC) OnAckReceived(*packet.Packet) {}
func (c *bbrCC) LossIndicated() bool          { return false }

func (c *bbrCC) OnAck(ack, acked int64) bool {
	now := c.s.sched.Now()
	c.delivered += acked
	handled := false
	if c.inRecovery {
		if ack <= c.recover {
			// Partial ACK: repair the next hole; the model, not the
			// repair, decides the rate.
			c.s.transmit(c.s.sndUna)
			c.s.restartRTO()
			handled = true
		} else {
			c.inRecovery = false
		}
	}
	c.updateModel(now, ack)
	if handled {
		c.s.trySend()
	}
	return handled
}

// updateModel closes out rounds, feeds the bandwidth filter and runs
// the state machine.
func (c *bbrCC) updateModel(now units.Time, ack int64) {
	if ack >= c.roundEndSeq {
		if c.haveRound {
			if elapsed := now.Sub(c.roundStart); elapsed > 0 {
				bw := float64(c.delivered-c.roundDelivered) /
					(float64(elapsed) / float64(units.Second))
				c.pushBw(bw)
			}
			c.rounds++
		}
		c.haveRound = true
		c.roundStart = now
		c.roundDelivered = c.delivered
		c.roundEndSeq = c.s.sndNxt
		c.postTimeout = false
		c.advancePhase()
	}
	// PROBE_RTT entry: the min-RTT estimate has gone stale.
	if c.mode != bbrProbeRTT && c.haveMinRTT && now.Sub(c.minRTTAt) > bbrMinRTTWindow {
		c.mode = bbrProbeRTT
		c.probeRTTDone = now.Add(bbrProbeRTTDuration)
	}
	if c.mode == bbrProbeRTT && now >= c.probeRTTDone {
		c.minRTTAt = now
		if c.fullBw {
			c.mode = bbrProbeBW
			c.cycleIdx = 0
		} else {
			c.mode = bbrStartup
		}
	}
}

// advancePhase runs the per-round state machine transitions.
func (c *bbrCC) advancePhase() {
	switch c.mode {
	case bbrStartup:
		bw := c.btlBw()
		if bw >= c.fullBwBase*1.25 {
			c.fullBwBase = bw
			c.fullBwRounds = 0
			return
		}
		c.fullBwRounds++
		if c.fullBwRounds >= 3 {
			// Pipe full: stop probing up, drain the startup queue.
			c.fullBw = true
			c.mode = bbrDrain
		}
	case bbrDrain:
		if float64(c.s.Outstanding()) <= c.bdp() {
			c.mode = bbrProbeBW
			c.cycleIdx = 0
		}
	case bbrProbeBW:
		c.cycleIdx = (c.cycleIdx + 1) % len(bbrPacingCycle)
	}
}

// OnDupAck during recovery: keep the pipe fed at the model's rate.
func (c *bbrCC) OnDupAck() { c.s.trySend() }

// OnLoss retransmits and marks the recovery episode, without reducing
// the window or the rate model.
func (c *bbrCC) OnLoss() {
	c.recover = c.s.sndNxt - 1
	c.inRecovery = true
	c.s.transmit(c.s.sndUna)
	c.s.restartRTO()
	c.s.trySend()
}

// OnTimeout: be conservative — cap inflight at the minimum until a full
// round of ACKs proves the path is moving again. The model survives.
func (c *bbrCC) OnTimeout() {
	c.inRecovery = false
	c.postTimeout = true
}

// OnECE: BBRv1 ignores ECN signals; the model alone sets the rate.
func (c *bbrCC) OnECE() bool { return false }

func (c *bbrCC) OnRTTSample(rtt units.Duration) {
	now := c.s.sched.Now()
	// The sample replaces the estimate when lower, or unconditionally
	// during PROBE_RTT (that is what the probe is for). Expiry is
	// handled by PROBE_RTT entry, not here.
	if !c.haveMinRTT || rtt <= c.minRTT || c.mode == bbrProbeRTT {
		c.haveMinRTT = true
		c.minRTT = rtt
		c.minRTTAt = now
	}
}

func (c *bbrCC) RateDriven() bool { return true }

// PaceInterval derives the inter-send gap from the model: one segment
// every 1/(gain × btlBw) seconds. Before the first bandwidth sample the
// sender falls back to spreading the window over the SRTT.
func (c *bbrCC) PaceInterval(srtt units.Duration) units.Duration {
	bw := c.btlBw()
	if bw <= 0 {
		return units.Duration(int64(srtt) / c.s.usableWindow())
	}
	iv := float64(units.Second) / (c.pacingGain() * bw)
	if iv < 1 {
		iv = 1
	}
	return units.Duration(iv)
}
