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

func newSackCC() *sackCC { return &sackCC{} }

// OnAckReceived folds the ACK's SACK blocks into the scoreboard before
// the ACK is dispatched.
func (c *sackCC) OnAckReceived(p *packet.Packet) {
	c.sb.update(p.Sack, c.ops.SndUna())
}

// LossIndicated triggers fast retransmit before three duplicate ACKs
// when the scoreboard already proves the head segment lost.
func (c *sackCC) LossIndicated() bool { return c.sb.lost(c.ops.SndUna()) }

func (c *sackCC) OnAck(ack, acked int64) bool {
	c.sb.advance(ack)
	if c.inRecovery && ack <= c.recover {
		// Partial ACK: the scoreboard knows the remaining holes; keep
		// the window at ssthresh and fill the pipe.
		c.ops.RestartRTO()
		c.fillPipe()
		return true
	}
	c.ackUpdate(acked)
	return false
}

func (c *sackCC) OnDupAck() { c.fillPipe() }

func (c *sackCC) OnLoss() {
	flight := float64(c.ops.Outstanding())
	c.sl.ssthresh[c.row] = math.Max(flight/2, 2)
	c.recover = c.ops.SndNxt() - 1
	c.inRecovery = true
	c.sl.cwnd[c.row] = c.sl.ssthresh[c.row]
	una := c.ops.SndUna()
	c.ops.Retransmit(una)
	c.sb.rtxed.add(una)
	c.ops.RestartRTO()
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
	for c.sb.pipe(c.ops.SndUna(), c.ops.SndNxt()) < c.ops.UsableWindow() {
		if hole := c.sb.nextHole(c.ops.SndUna(), c.ops.SndNxt()); hole >= 0 {
			c.ops.Retransmit(hole)
			c.sb.rtxed.add(hole)
			continue
		}
		if !c.ops.CanSendNew() {
			return
		}
		c.ops.SendNextNew()
	}
}
