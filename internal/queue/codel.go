package queue

import (
	"math"

	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// CoDelConfig parameterizes Controlled Delay AQM (Nichols & Jacobson,
// 2012). CoDel postdates the paper, but it attacks the same problem from
// the delay side: instead of sizing the buffer, it bounds the *sojourn
// time* packets experience, dropping at an increasing rate while the
// minimum sojourn over an interval stays above target. Including it lets
// the buffer-sizing experiments ask the modern question: does a
// delay-managed queue make the sqrt(n) capacity question moot?
type CoDelConfig struct {
	Limit Limit // hard physical capacity (tail-drop beyond)

	// Target is the acceptable standing sojourn time (default 5 ms).
	Target units.Duration
	// Interval is the sliding window over which the minimum sojourn must
	// dip below Target (default 100 ms).
	Interval units.Duration

	// MaxPacket is the MTU used for the "fewer than one MTU queued" test
	// that suspends dropping when the queue is nearly empty (default
	// units.DefaultSegment, the simulator's segment size).
	MaxPacket units.ByteSize
}

func (c CoDelConfig) withDefaults() CoDelConfig {
	if c.Target == 0 {
		c.Target = 5 * units.Millisecond
	}
	if c.Interval == 0 {
		c.Interval = 100 * units.Millisecond
	}
	if c.MaxPacket == 0 {
		c.MaxPacket = units.DefaultSegment
	}
	return c
}

// CoDel implements the CoDel AQM: drops happen at dequeue, driven by
// packet sojourn times, at a rate that increases with the square root of
// the drop count while the queue stays bad.
type CoDel struct {
	cfg CoDelConfig
	// line admits at the physical limit and holds the packets: one the
	// control law drops departs it like any other, and counts here.
	line DropTail

	// firstAbove is when the sojourn first exceeded Target with no dip
	// since; zero means "currently below target".
	firstAbove units.Time
	dropping   bool
	dropNext   units.Time
	count      int

	// SojournDrops counts packets dropped by the control law (as opposed
	// to tail drops at the physical limit).
	SojournDrops int64
	sojournBytes units.ByteSize
}

// NewCoDel returns a CoDel queue.
func NewCoDel(cfg CoDelConfig) *CoDel {
	c := &CoDel{cfg: cfg.withDefaults()}
	c.line.limit, c.line.self = c.cfg.Limit, &c.line
	return c
}

// Enqueue implements Queue: admission is only bounded by the physical
// limit; the control law acts at dequeue.
func (c *CoDel) Enqueue(p *packet.Packet, now units.Time) bool { return c.line.Enqueue(p, now) }

// controlLaw returns the next drop time after t for the current count.
func (c *CoDel) controlLaw(t units.Time) units.Time {
	return t.Add(units.Duration(float64(c.cfg.Interval) / math.Sqrt(float64(c.count))))
}

// doDequeue pops one packet and reports whether its sojourn was above
// target (maintaining firstAbove).
func (c *CoDel) doDequeue(now units.Time) (*packet.Packet, bool) {
	p := c.line.Dequeue(now)
	if p == nil {
		c.firstAbove = 0
		return nil, false
	}
	sojourn := now.Sub(p.Enqueued)
	if sojourn < c.cfg.Target || c.line.Bytes() < c.cfg.MaxPacket {
		// Below target (or nearly empty): reset the above-target clock.
		c.firstAbove = 0
		return p, false
	}
	if c.firstAbove == 0 {
		c.firstAbove = now.Add(c.cfg.Interval)
		return p, false
	}
	return p, now >= c.firstAbove
}

// Dequeue implements Queue with the CoDel state machine.
func (c *CoDel) Dequeue(now units.Time) *packet.Packet {
	p, okToDrop := c.doDequeue(now)
	if p == nil {
		c.dropping = false
		return nil
	}
	if c.dropping {
		if !okToDrop {
			c.dropping = false
		} else {
			for now >= c.dropNext && c.dropping {
				c.drop(p)
				c.count++
				p, okToDrop = c.doDequeue(now)
				if p == nil {
					c.dropping = false
					return nil
				}
				if !okToDrop {
					c.dropping = false
				} else {
					c.dropNext = c.controlLaw(c.dropNext)
				}
			}
		}
	} else if okToDrop {
		// Enter dropping state.
		c.drop(p)
		c.count++
		p, _ = c.doDequeue(now)
		c.dropping = true
		// Start the next drop soon if we were dropping recently (keeps
		// the rate ramping instead of restarting), else one interval out.
		if c.count > 2 && now.Sub(c.dropNext) < 8*c.cfg.Interval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlLaw(now)
	}
	return p
}

func (c *CoDel) drop(p *packet.Packet) {
	c.SojournDrops++
	c.sojournBytes += p.Size
}

// Len implements Queue.
func (c *CoDel) Len() int { return c.line.Len() }

// Bytes implements Queue.
func (c *CoDel) Bytes() units.ByteSize { return c.line.Bytes() }

// Limit returns the physical limit the line is held to.
func (c *CoDel) Limit() Limit { return c.cfg.Limit }

// Stats implements Queue: the line's, with the control law's drops
// moved from departures to drops.
func (c *CoDel) Stats() Stats {
	s := c.line.stats
	s.DequeuedPackets -= c.SojournDrops
	s.DequeuedBytes -= c.sojournBytes
	s.DroppedPackets += c.SojournDrops
	s.DroppedBytes += c.sojournBytes
	return s
}
