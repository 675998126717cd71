package tcp

import (
	"math"

	"bufsim/internal/units"
)

// CUBIC parameters per RFC 8312: multiplicative decrease factor and the
// cubic scaling constant (units of segments/sec^3), plus the AIMD slope
// that makes the TCP-friendly region match a Reno flow reduced by beta.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
	// cubicAIMDAlpha = 3*(1-beta)/(1+beta): the per-RTT additive slope
	// of an AIMD flow with CUBIC's gentler decrease factor.
	cubicAIMDAlpha = 3 * (1 - cubicBeta) / (1 + cubicBeta)
)

// cubicCC implements RFC 8312-style CUBIC on NewReno recovery
// mechanics: loss detection, partial-ACK repair and pipe refill are the
// classic algorithms, while window growth between losses follows the
// cubic function W(t) = C·(t−K)³ + W_max anchored at the last loss
// epoch, with fast convergence and a TCP-friendly floor.
type cubicCC struct {
	aimd

	wMax float64 // window just before the last reduction

	// Epoch state, reset at every loss so the cubic curve re-anchors.
	haveEpoch  bool
	epochStart units.Time
	k          float64 // time (sec) for the curve to return to origin
	origin     float64 // plateau window the curve aims for
	wEst       float64 // TCP-friendly AIMD estimate for this epoch
}

// OnAck mirrors NewReno's recovery handling; growth outside recovery is
// cubic instead of +1/W.
func (c *cubicCC) OnAck(ack, acked int64) bool {
	if c.inRecovery && ack <= c.recover {
		c.s.transmit(c.s.sndUna)
		c.cwnd = math.Max(c.cwnd-float64(acked)+1, 1)
		c.s.restartRTO()
		c.s.trySend()
		return true
	}
	if c.inRecovery {
		c.cwnd = c.ssthresh
		c.inRecovery = false
		return false
	}
	for i := int64(0); i < acked; i++ {
		if c.cwnd < c.ssthresh {
			c.cwnd++ // slow start
		} else {
			c.cubicGrow()
		}
	}
	if c.cwnd > float64(c.cfg.MaxWindow) {
		c.cwnd = float64(c.cfg.MaxWindow)
	}
	return false
}

// cubicGrow advances the window by one ACKed segment's worth of the
// cubic curve, floored by the TCP-friendly AIMD estimate.
func (c *cubicCC) cubicGrow() {
	now := c.s.sched.Now()
	if !c.haveEpoch {
		c.haveEpoch = true
		c.epochStart = now
		if c.cwnd < c.wMax {
			c.k = math.Cbrt((c.wMax - c.cwnd) / cubicC)
			c.origin = c.wMax
		} else {
			c.k = 0
			c.origin = c.cwnd
		}
		c.wEst = c.cwnd
	}
	// Target the curve one SRTT ahead, per RFC 8312 §4.1.
	t := float64(now.Sub(c.epochStart)+c.s.srtt) / float64(units.Second)
	d := t - c.k
	target := c.origin + cubicC*d*d*d
	var inc float64
	if target > c.cwnd {
		inc = (target - c.cwnd) / c.cwnd
	} else {
		inc = 0.01 / c.cwnd // minimal probing around the plateau
	}
	// TCP-friendly region: never slower than AIMD with beta 0.7.
	c.wEst += cubicAIMDAlpha / c.cwnd
	if c.wEst > c.cwnd+inc {
		c.cwnd = c.wEst
	} else {
		c.cwnd += inc
	}
}

// reduce applies CUBIC's multiplicative decrease with fast convergence
// and re-anchors the epoch; the caller decides what the new cwnd is.
func (c *cubicCC) reduce() {
	c.haveEpoch = false
	if c.cwnd < c.wMax {
		// Fast convergence: the flow is ceding bandwidth; aim lower.
		c.wMax = c.cwnd * (2 - cubicBeta) / 2
	} else {
		c.wMax = c.cwnd
	}
	c.ssthresh = math.Max(c.cwnd*cubicBeta, 2)
}

func (c *cubicCC) OnLoss() {
	c.reduce()
	c.recover = c.s.sndNxt - 1
	c.s.transmit(c.s.sndUna)
	c.s.restartRTO()
	c.inRecovery = true
	c.cwnd = c.ssthresh + 3
	c.s.trySend()
}

func (c *cubicCC) OnTimeout() {
	c.haveEpoch = false
	c.wMax = c.cwnd
	c.ssthresh = math.Max(c.cwnd*cubicBeta, 2)
	c.cwnd = 1
	c.inRecovery = false
}

func (c *cubicCC) OnECE() bool {
	if c.inRecovery || c.s.sndUna < c.ecnRecover {
		return false
	}
	c.reduce()
	c.cwnd = c.ssthresh
	c.ecnRecover = c.s.sndNxt
	return true
}
