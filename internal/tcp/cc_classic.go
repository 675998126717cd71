package tcp

import (
	"math"

	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// aimd is the shared state and behaviour of the classic loss-based
// variants: slow start below ssthresh, +1/W congestion avoidance above
// it, multiplicative decrease on loss. The concrete variants differ
// only in how they recover — Reno inflates and deflates, Tahoe
// collapses, NewReno repairs partial ACKs, SACK fills holes — so each
// embeds aimd and overrides the recovery hooks.
//
// The float64 operation sequences here replicate the pre-interface
// sender exactly; the pinned run digests depend on it.
type aimd struct {
	s   *Sender
	cfg Config

	cwnd     float64 // congestion window, segments
	ssthresh float64 // slow-start threshold, segments

	inRecovery bool
	recover    int64 // highest segment outstanding when loss was detected
	ecnRecover int64 // next ECN reduction allowed when sndUna passes this
}

func (a *aimd) Init(s *Sender, cfg Config) {
	a.s = s
	a.cfg = cfg
	a.cwnd = initialCwnd
	a.ssthresh = float64(cfg.MaxWindow)
}

func (a *aimd) Window() float64   { return a.cwnd }
func (a *aimd) Ssthresh() float64 { return a.ssthresh }
func (a *aimd) InSlowStart() bool { return a.cwnd < a.ssthresh }
func (a *aimd) Recovering() bool  { return a.inRecovery }

func (a *aimd) OnAckReceived(*packet.Packet) {}
func (a *aimd) LossIndicated() bool          { return false }
func (a *aimd) OnRTTSample(units.Duration)   {}
func (a *aimd) RateDriven() bool             { return false }

// PaceInterval spreads one window over one smoothed RTT.
func (a *aimd) PaceInterval(srtt units.Duration) units.Duration {
	return units.Duration(int64(srtt) / a.s.usableWindow())
}

// grow opens the window per ACKed segment: slow start below ssthresh
// (+1 per segment), congestion avoidance above it (+1/W per segment).
func (a *aimd) grow(acked int64) {
	for i := int64(0); i < acked; i++ {
		if a.cwnd < a.ssthresh {
			a.cwnd++ // slow start: +1 per ACKed segment
		} else {
			a.cwnd += 1 / a.cwnd // congestion avoidance: +1/W
		}
	}
	if a.cwnd > float64(a.cfg.MaxWindow) {
		a.cwnd = float64(a.cfg.MaxWindow)
	}
}

// ackUpdate is the Reno core shared by the classic variants' OnAck: a
// new ACK during recovery deflates to ssthresh and exits; otherwise the
// window grows.
func (a *aimd) ackUpdate(acked int64) {
	if a.inRecovery {
		// Full ACK (or plain Reno): deflate and resume avoidance.
		a.cwnd = a.ssthresh
		a.inRecovery = false
		return
	}
	a.grow(acked)
}

// OnAck: Reno and Tahoe exit recovery (or just grow) on any new ACK.
func (a *aimd) OnAck(ack, acked int64) bool {
	a.ackUpdate(acked)
	return false
}

// OnDupAck (during recovery): window inflation — each duplicate ACK
// signals a departure.
func (a *aimd) OnDupAck() {
	a.cwnd++
	a.s.trySend()
}

// fastRetransmit is the loss reaction shared by the non-SACK variants:
// halve ssthresh against the actual flight, record the recovery point
// and retransmit the head of the window.
func (a *aimd) fastRetransmit() {
	flight := float64(a.s.Outstanding())
	a.ssthresh = math.Max(flight/2, 2)
	a.recover = a.s.sndNxt - 1
	a.s.transmit(a.s.sndUna)
	a.s.restartRTO()
}

// OnTimeout collapses to one segment; the sender performs the go-back-N
// rewind and head retransmission itself.
func (a *aimd) OnTimeout() {
	flight := float64(a.s.Outstanding())
	a.ssthresh = math.Max(flight/2, 2)
	a.cwnd = 1
	a.inRecovery = false
}

// OnECE halves the window like a loss, but with nothing to retransmit.
// At most one reduction per round trip, so a whole window of marked
// packets counts as one signal.
func (a *aimd) OnECE() bool {
	if a.inRecovery || a.s.sndUna < a.ecnRecover {
		return false
	}
	a.ssthresh = math.Max(a.cwnd/2, 2)
	a.cwnd = a.ssthresh
	a.ecnRecover = a.s.sndNxt
	return true
}

// renoCC: fast retransmit + fast recovery with window inflation.
type renoCC struct{ aimd }

func (c *renoCC) OnLoss() {
	c.fastRetransmit()
	c.inRecovery = true
	c.cwnd = c.ssthresh + 3
	c.s.trySend()
}

// tahoeCC: fast retransmit but no fast recovery — the window collapses
// to one segment, as on a timeout.
type tahoeCC struct{ aimd }

// OnDupAck: Tahoe never enters recovery, so recovery inflation cannot
// occur; explicit no-op for clarity.
func (c *tahoeCC) OnDupAck() {}

func (c *tahoeCC) OnLoss() {
	c.fastRetransmit()
	c.cwnd = 1
	c.s.dupAcks = 0
}

// newRenoCC: Reno plus partial-ACK retransmission during recovery.
type newRenoCC struct{ renoCC }

func (c *newRenoCC) OnAck(ack, acked int64) bool {
	if c.inRecovery && ack <= c.recover {
		// Partial ACK: retransmit the next hole, deflate by the amount
		// acked, stay in recovery.
		c.s.transmit(c.s.sndUna)
		c.cwnd = math.Max(c.cwnd-float64(acked)+1, 1)
		c.s.restartRTO()
		c.s.trySend()
		return true
	}
	c.ackUpdate(acked)
	return false
}
