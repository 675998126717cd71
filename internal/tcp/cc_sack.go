package tcp

import (
	"math"

	"bufsim/internal/packet"
)

// sackCC: selective acknowledgements with RFC 6675-style pipe-driven
// recovery. The scoreboard (sack.go) tracks which segments the receiver
// holds; recovery transmits whenever the estimated pipe is below the
// window, lowest unrepaired hole first.
type sackCC struct {
	aimd
	sb sackScoreboard
}

// OnAckReceived folds the ACK's SACK blocks into the scoreboard before
// the ACK is dispatched.
func (c *sackCC) OnAckReceived(p *packet.Packet) {
	c.sb.update(p.Sack, c.s.sndUna)
}

// LossIndicated triggers fast retransmit before three duplicate ACKs
// when the scoreboard already proves the head segment lost.
func (c *sackCC) LossIndicated() bool { return c.sb.lost(c.s.sndUna) }

func (c *sackCC) OnAck(ack, acked int64) bool {
	c.sb.advance(ack)
	if c.inRecovery && ack <= c.recover {
		// Partial ACK: the scoreboard knows the remaining holes; keep
		// the window at ssthresh and fill the pipe.
		c.s.restartRTO()
		c.fillPipe()
		return true
	}
	c.ackUpdate(acked)
	return false
}

func (c *sackCC) OnDupAck() { c.fillPipe() }

func (c *sackCC) OnLoss() {
	flight := float64(c.s.Outstanding())
	c.ssthresh = math.Max(flight/2, 2)
	c.recover = c.s.sndNxt - 1
	c.inRecovery = true
	c.cwnd = c.ssthresh
	una := c.s.sndUna
	c.s.transmit(una)
	c.sb.rtxed.add(una)
	c.s.restartRTO()
	c.fillPipe()
}

func (c *sackCC) OnTimeout() {
	c.aimd.OnTimeout()
	c.sb.reset() // go-back-N supersedes the scoreboard
}

// fillPipe fills the pipe during SACK recovery: lowest unrepaired hole
// first, then new data, never exceeding the window's worth of estimated
// in-flight segments.
func (c *sackCC) fillPipe() {
	for c.sb.pipe(c.s.sndUna, c.s.sndNxt) < c.s.usableWindow() {
		if hole := c.sb.nextHole(c.s.sndUna, c.s.sndNxt); hole >= 0 {
			c.s.transmit(hole)
			c.sb.rtxed.add(hole)
			continue
		}
		if !c.s.canSendNew() {
			return
		}
		c.s.sendNext()
	}
}
