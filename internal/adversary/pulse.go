package adversary

import (
	"fmt"

	"bufsim/internal/packet"
	"bufsim/internal/sim"
	"bufsim/internal/stats"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// Pulse is the burst-synchronized CBR pattern as a workload.Source:
// Senders constant-bit-rate trains that switch on and off together, all
// anchored to the same phase. During each on-window the aggregate
// arrives at PeakRate; between windows the link drains. A CBR source
// would jitter its senders precisely to avoid phase locking; Pulse has
// no jitter by construction — the synchronization is the attack — and
// with one sender at Duty 1 it is the plain constant-rate stream. The
// bound RNG is never consulted.
type Pulse struct {
	// Senders is the number of synchronized trains (one per station,
	// wrapping if there are fewer stations).
	Senders int
	// PeakRate is the aggregate arrival rate while the pulse is on;
	// each sender emits PeakRate/Senders.
	PeakRate units.BitRate
	// Period is the pulse repetition interval; Duty in (0,1] is the
	// fraction of each period the trains are on.
	Period units.Duration
	Duty   float64
	// PacketSize is the wire size of each packet (default
	// units.DefaultSegment).
	PacketSize units.ByteSize
}

func (p Pulse) String() string {
	return fmt.Sprintf("pulse(%d senders, peak %v, period %v, duty %.2f)",
		p.Senders, p.PeakRate, p.Period, p.Duty)
}

// Bind implements workload.Source. Binding validates the pattern and
// wires one raw flow per sender; traffic begins at Start.
func (p Pulse) Bind(d *topology.Dumbbell, _ *sim.RNG) workload.Driver {
	if p.Senders <= 0 {
		panic(fmt.Sprintf("adversary: Pulse.Senders = %d", p.Senders))
	}
	if p.PeakRate <= 0 {
		panic(fmt.Sprintf("adversary: Pulse.PeakRate = %v", p.PeakRate))
	}
	if p.Period <= 0 {
		panic(fmt.Sprintf("adversary: Pulse.Period = %v", p.Period))
	}
	if p.Duty <= 0 || p.Duty > 1 {
		panic(fmt.Sprintf("adversary: Pulse.Duty = %v out of (0,1]", p.Duty))
	}
	if p.PacketSize == 0 {
		p.PacketSize = units.DefaultSegment
	}
	drv := &PulseDriver{src: p, sched: d.Config().Sched}
	perSender := p.PeakRate / units.BitRate(p.Senders)
	gap := units.Duration(int64(p.PacketSize.Bits()) * int64(units.Second) / int64(perSender))
	onTime := units.Duration(float64(p.Period) * p.Duty)
	if onTime < gap {
		onTime = gap // at least one packet per pulse
	}
	for i := 0; i < p.Senders; i++ {
		s := &pulseSender{
			sched:  drv.sched,
			size:   p.PacketSize,
			gap:    gap,
			period: p.Period,
			onTime: onTime,
		}
		s.flow = d.NewRawFlow(d.Station(i % d.NumStations()))
		d.BindRawFlow(s.flow, nil, packet.HandlerFunc(s.receive))
		drv.senders = append(drv.senders, s)
	}
	return drv
}

// PulseDriver is the bound pulse pattern; experiments type-assert it out
// of workload.Driver for the loss and delay counters.
type PulseDriver struct {
	src     Pulse
	sched   *sim.Scheduler
	senders []*pulseSender
	running bool
}

// Start implements workload.Driver: every train anchors its phase at
// the current instant, so all pulses are aligned from the first burst.
func (d *PulseDriver) Start() {
	if d.running {
		panic("adversary: pulse driver started twice")
	}
	d.running = true
	epoch := d.sched.Now()
	for _, s := range d.senders {
		s.epoch = epoch
		s.running = true
		s.sendNext()
	}
}

// Stop implements workload.Driver.
func (d *PulseDriver) Stop() {
	d.running = false
	for _, s := range d.senders {
		s.running = false
	}
}

// Active implements workload.Driver.
func (d *PulseDriver) Active() int {
	if !d.running {
		return 0
	}
	return len(d.senders)
}

// Generated implements workload.Driver.
func (d *PulseDriver) Generated() int64 { return int64(len(d.senders)) }

// Records implements workload.Driver: pulse trains are not finite flows.
func (d *PulseDriver) Records() []*workload.FlowRecord { return nil }

// Sent and Received count packets end to end across all trains; the
// difference after a drain period is the burst loss.
func (d *PulseDriver) Sent() int64 {
	var n int64
	for _, s := range d.senders {
		n += s.sent
	}
	return n
}

// Received returns the packets delivered across all trains.
func (d *PulseDriver) Received() int64 {
	var n int64
	for _, s := range d.senders {
		n += s.received
	}
	return n
}

// LossRate returns the end-to-end loss fraction so far; packets in
// flight count as lost, so read it after the trains have drained.
func (d *PulseDriver) LossRate() float64 {
	sent := d.Sent()
	if sent == 0 {
		return 0
	}
	return float64(sent-d.Received()) / float64(sent)
}

// MeanDelay returns the mean one-way packet latency in seconds across
// all trains (0 before any delivery), queueing included — the cost the
// bursts impose on their own traffic.
func (d *PulseDriver) MeanDelay() float64 {
	var sum float64
	var n int64
	for _, s := range d.senders {
		sum += s.delay.Mean() * float64(s.delay.N())
		n += s.delay.N()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// pulseSender is one train: an actor that emits back-to-back-at-rate
// packets while inside the on-window and sleeps to the next period
// boundary otherwise.
type pulseSender struct {
	sched  *sim.Scheduler
	flow   *topology.RawFlow
	size   units.ByteSize
	gap    units.Duration // inter-packet gap at the per-sender peak rate
	period units.Duration
	onTime units.Duration
	epoch  units.Time // phase anchor shared by the whole pattern

	running  bool
	seq      int64
	sent     int64
	received int64
	delay    stats.Welford
}

func (s *pulseSender) sendNext() {
	if !s.running {
		return
	}
	now := s.sched.Now()
	off := now.Sub(s.epoch) % s.period
	if off >= s.onTime {
		// Between pulses: wake at the next period boundary.
		s.sched.PostAfter(s.period-off, s, 0, nil)
		return
	}
	s.flow.Forward.Handle(&packet.Packet{
		Flow: s.flow.ID,
		Src:  s.flow.Src,
		Dst:  s.flow.Dst,
		Seq:  s.seq,
		Size: s.size,
		Sent: now,
	})
	s.seq++
	s.sent++
	next := s.gap
	if off+s.gap >= s.onTime {
		next = s.period - off // pulse over: sleep to the next one
	}
	s.sched.PostAfter(next, s, 0, nil)
}

// OnEvent implements sim.Actor: the inter-packet timer is a typed
// kernel event.
func (s *pulseSender) OnEvent(int32, any) { s.sendNext() }

func (s *pulseSender) receive(p *packet.Packet) {
	s.received++
	s.delay.Add(s.sched.Now().Sub(p.Sent).Seconds())
}
