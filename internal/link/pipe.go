package link

import (
	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// Pipe is a link that never drops and is never measured: a transmitter
// at a fixed rate behind an unlimited FIFO, then a fixed propagation
// delay. Nothing can overtake or discard a packet once it is offered, so
// its arrival time is known at the offer — when the transmitter frees
// up after the packets ahead of it, plus its own transmission time, plus
// the delay — and the pipe posts that arrival at once: one kernel event
// per packet, where a Link over an unlimited drop-tail queue spends two
// (transmit done, then arrive). The packets leave at exactly the times
// that Link gives them; only the (time, seq) key of each arrival is
// reserved earlier, at the offer.
//
// The dumbbell's access and reverse links and the parking lot's are
// pipes; a link with a finite buffer, an AQM or an observer is a Link.
// Create with NewPipe; a Pipe must not be copied after first use.
type Pipe struct {
	name  string
	sched *sim.Scheduler
	rate  units.BitRate
	delay units.Duration
	dst   packet.Handler

	// wire carries the packets toward dst; their arrival times only
	// increase, so they queue in a sim.Lane.
	wire *sim.Lane
	// free is when the transmitter finishes the last packet offered.
	free units.Time

	// aud, when non-nil, refuses and reports released packets at both
	// ends of the pipe (see SetAuditor).
	aud *audit.Auditor
}

// NewPipe returns a pipe transmitting at rate with one-way propagation
// delay d, delivering to dst.
func NewPipe(name string, sched *sim.Scheduler, rate units.BitRate, d units.Duration, dst packet.Handler) *Pipe {
	if rate <= 0 {
		panic("link: non-positive rate")
	}
	if d < 0 {
		panic("link: negative delay")
	}
	p := &Pipe{name: name, sched: sched, rate: rate, delay: d, dst: dst}
	p.wire = sched.NewLane(p, opArrive)
	return p
}

// SetAuditor attaches an invariant checker: the pipe refuses and reports
// a packet that was already released to its pool when it is offered, and
// reports one released while it was on the wire when it arrives. A nil
// auditor (the default) disables the checks.
func (p *Pipe) SetAuditor(a *audit.Auditor) { p.aud = a }

// Handle implements packet.Handler: the packet is serialized behind the
// ones already offered and arrives at dst one delay after its last bit
// leaves.
func (p *Pipe) Handle(pk *packet.Packet) {
	now := p.sched.Now()
	if p.aud != nil && pk.Released() {
		p.aud.Violationf(now, "link:"+p.name, "packet-use-after-release",
			"offered a packet its endpoint had already released")
		return
	}
	if p.free < now {
		p.free = now
	}
	p.free = p.free.Add(units.TransmissionTime(pk.Size, p.rate))
	p.wire.PostAfter(p.free.Sub(now)+p.delay, pk)
}

// OnEvent implements sim.Actor: the wire's only event is an arrival.
func (p *Pipe) OnEvent(_ int32, arg any) {
	pk := arg.(*packet.Packet)
	if p.aud != nil && pk.Released() {
		p.aud.Violationf(p.sched.Now(), "link:"+p.name, "packet-use-after-release",
			"a packet was released while it was on the pipe")
	}
	p.dst.Handle(pk)
}
