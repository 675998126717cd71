// Package link models a unidirectional point-to-point link: a finite-rate
// transmitter fed by an output queue, followed by a fixed propagation
// delay. This is the "store-and-forward output-queued port" abstraction
// the paper's single-bottleneck analysis assumes.
//
// Utilization — the paper's primary metric — is measured here exactly:
// the transmitter accumulates busy time, so utilization over a window is
// busy-time divided by wall-time with no sampling error. Queue occupancy
// and queueing delay are measured here too, whatever the discipline: the
// link is the only caller of its queue's Enqueue and Dequeue.
package link

import (
	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/stats"
	"bufsim/internal/units"
)

// sojournBuckets spans 10 µs to ~84 s in doubling steps — wide enough for
// any buffer the experiments size, in milliseconds.
var sojournBuckets = metrics.ExpBuckets(0.01, 2, 24)

// Link is a unidirectional link. Create with New; a Link must not be
// copied after first use.
type Link struct {
	name  string
	sched *sim.Scheduler
	rate  units.BitRate
	delay units.Duration
	q     queue.Queue
	dst   packet.Handler

	// wire carries the packets propagating toward dst. Their arrival times
	// are already sorted (fixed delay, increasing send times), so they
	// queue in a sim.Lane and only the next arrival occupies the event
	// heap.
	wire *sim.Lane

	busy      bool
	busySince units.Time
	busyTotal units.Duration

	deliveredPackets int64
	deliveredBytes   units.ByteSize

	// occ is the queue's length in packets over time, set after every
	// accepted enqueue and every dequeue; RestartOccupancy restarts it.
	occ stats.TimeWeighted
	// sojourn, when non-nil (see Instrument), records each dequeued
	// packet's queueing delay in milliseconds.
	sojourn *metrics.Histogram

	// dropPool, when non-nil, takes back every packet the queue rejects
	// (see SetDropPool).
	dropPool *packet.Pool

	// aud, when non-nil, receives busy-time and delivery-consistency
	// violations; expectedBusy is the exact sum of per-packet transmission
	// times, maintained only while auditing.
	aud          *audit.Auditor
	expectedBusy units.Duration

	// OnDequeue, if set, observes each packet as it begins transmission
	// together with the queueing delay it experienced. Experiments use it
	// to build queueing-delay distributions.
	OnDequeue func(p *packet.Packet, queued units.Duration)
}

// Link event opcodes (see sim.Actor).
const (
	// opTxDone: the last bit of the packet left the transmitter.
	opTxDone int32 = iota
	// opArrive: the packet finished propagating and reaches dst.
	opArrive
)

// OnEvent implements sim.Actor: transmit-completion and propagation
// events carry the packet as their typed payload, so the per-packet path
// through a link allocates no closures.
func (l *Link) OnEvent(op int32, arg any) {
	p := arg.(*packet.Packet)
	switch op {
	case opTxDone:
		l.finishTransmit(p)
	case opArrive:
		l.dst.Handle(p)
	}
}

// New returns a link transmitting at rate with one-way propagation delay d,
// buffered by q, delivering to dst.
func New(name string, sched *sim.Scheduler, rate units.BitRate, d units.Duration, q queue.Queue, dst packet.Handler) *Link {
	if rate <= 0 {
		panic("link: non-positive rate")
	}
	if d < 0 {
		panic("link: negative delay")
	}
	l := &Link{name: name, sched: sched, rate: rate, delay: d, q: q, dst: dst}
	l.wire = sched.NewLane(l, opArrive)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Rate returns the link's transmission rate.
func (l *Link) Rate() units.BitRate { return l.rate }

// Delay returns the link's one-way propagation delay.
func (l *Link) Delay() units.Duration { return l.delay }

// Queue returns the link's output queue.
func (l *Link) Queue() queue.Queue { return l.q }

// SetAuditor attaches an invariant checker: after every completed
// transmission the link verifies its busy-time accounting against the sum
// of per-packet transmission times and against elapsed simulated time,
// and it refuses and reports any packet that was already released to its
// pool (see packet.Pool). A nil auditor (the default) disables the checks.
func (l *Link) SetAuditor(a *audit.Auditor) { l.aud = a }

// SetDropPool makes the link release every packet its queue rejects into
// pl, the pool the packets' endpoints draw from. The link must run on the
// scheduler that owns pl (see packet.Packet on ownership); a nil pool
// (the default) leaves rejected packets to the garbage collector.
func (l *Link) SetDropPool(pl *packet.Pool) { l.dropPool = pl }

// Handle implements packet.Handler so links compose directly with routers
// and protocol agents.
func (l *Link) Handle(p *packet.Packet) { l.Send(p) }

// Send offers a packet to the link. If the output queue rejects it the
// packet is dropped silently (TCP discovers the loss end-to-end, exactly
// as with a real drop-tail router).
func (l *Link) Send(p *packet.Packet) {
	now := l.sched.Now()
	if l.aud != nil && p.Released() {
		// A poisoned packet has no meaningful size to serialize; it goes
		// no further.
		l.aud.Violationf(now, "link:"+l.name, "packet-use-after-release",
			"offered a packet its endpoint had already released")
		return
	}
	if !l.q.Enqueue(p, now) {
		l.dropPool.PutDropped(p)
		return
	}
	l.occ.Set(float64(l.q.Len()), now)
	if !l.busy {
		l.startNext()
	}
}

// startNext begins transmitting the head-of-line packet. Caller guarantees
// the transmitter is idle and the queue non-empty.
func (l *Link) startNext() {
	now := l.sched.Now()
	p := l.q.Dequeue(now)
	// An AQM may drop at dequeue, so the length is read even when nothing
	// comes out.
	l.occ.Set(float64(l.q.Len()), now)
	if p == nil {
		return
	}
	queued := now.Sub(p.Enqueued)
	if l.sojourn != nil {
		l.sojourn.Observe(queued.Milliseconds())
	}
	if l.OnDequeue != nil {
		l.OnDequeue(p, queued)
	}
	l.busy = true
	l.busySince = now
	tx := units.TransmissionTime(p.Size, l.rate)
	l.sched.PostAfter(tx, l, opTxDone, p)
}

// finishTransmit fires when the last bit of p leaves the transmitter: the
// packet enters the wire (propagation), and the next queued packet can
// start immediately.
func (l *Link) finishTransmit(p *packet.Packet) {
	now := l.sched.Now()
	l.busy = false
	l.busyTotal += now.Sub(l.busySince)
	l.deliveredPackets++
	l.deliveredBytes += p.Size
	if l.aud != nil {
		l.auditTransmit(p, now)
	}

	if l.delay == 0 {
		l.dst.Handle(p)
	} else {
		l.wire.PostAfter(l.delay, p)
	}
	if l.q.Len() > 0 {
		l.startNext()
	}
}

// auditTransmit checks the link's accounting after a completed
// transmission. busyTotal must equal the exact sum of per-packet
// transmission times (expectedBusy, maintained here so multi-gigabyte
// delivered totals never hit the int64 overflow a single
// TransmissionTime(deliveredBytes, rate) call would), and a transmitter
// that has only existed for `now` cannot have been busy longer than that.
// A float cross-check ties delivered bytes to rate x busy time, allowing
// one nanosecond of truncation per packet.
func (l *Link) auditTransmit(p *packet.Packet, now units.Time) {
	comp := "link:" + l.name
	if p.Released() {
		l.aud.Violationf(now, comp, "packet-use-after-release",
			"a packet was released while the link was transmitting it")
	}
	l.expectedBusy += units.TransmissionTime(p.Size, l.rate)
	if l.busyTotal != l.expectedBusy {
		l.aud.Violationf(now, comp, "busy-accounting",
			"busyTotal %v != sum of transmission times %v after %d packets",
			l.busyTotal, l.expectedBusy, l.deliveredPackets)
	}
	if l.busyTotal > now.Sub(units.Epoch) {
		l.aud.Violationf(now, comp, "busy-bounded",
			"busyTotal %v exceeds elapsed simulated time %v", l.busyTotal, now.Sub(units.Epoch))
	}
	// delivered bits / rate should equal busy seconds, up to 1 ns of
	// TransmissionTime truncation per delivered packet.
	idealSec := float64(l.deliveredBytes) * 8 / float64(l.rate)
	busySec := l.busyTotal.Seconds()
	slopSec := float64(l.deliveredPackets) * 1e-9
	if diff := idealSec - busySec; diff < -slopSec || diff > slopSec {
		l.aud.Violationf(now, comp, "delivery-rate",
			"delivered %d B at %v implies %.9fs busy, accounted %.9fs (slop %.9fs)",
			l.deliveredBytes, l.rate, idealSec, busySec, slopSec)
	}
}

// BusyTime returns the cumulative time the transmitter has spent sending,
// including the in-progress transmission up to now.
func (l *Link) BusyTime() units.Duration {
	t := l.busyTotal
	if l.busy {
		t += l.sched.Now().Sub(l.busySince)
	}
	return t
}

// Utilization returns the fraction of the window [from, now] the
// transmitter was busy, given the busy time previously snapshotted at
// `from` (see BusyTime). Returns 0 for an empty window.
func (l *Link) Utilization(busyAtFrom units.Duration, from units.Time) float64 {
	window := l.sched.Now().Sub(from)
	if window <= 0 {
		return 0
	}
	return float64(l.BusyTime()-busyAtFrom) / float64(window)
}

// RestartOccupancy restarts the occupancy measurement now, from the
// queue's current length: Occupancy then covers [now, ...] only. The test
// bed calls it where its window opens, so the warm-up's fill does not
// bias the mean.
func (l *Link) RestartOccupancy() {
	l.occ = stats.TimeWeighted{}
	l.occ.Set(float64(l.q.Len()), l.sched.Now())
}

// Occupancy returns the queue's time-averaged length in packets up to
// now and its peak, since the last RestartOccupancy (since the first
// enqueue if there was none).
func (l *Link) Occupancy() (mean float64, peak int) {
	return l.occ.Mean(l.sched.Now()), int(l.occ.Max())
}

// Instrument registers the link's telemetry into reg under name: busy
// (transmitting) seconds, delivered packet/byte counts and the queue's
// peak occupancy, published by a snapshot-time collector, and a
// per-packet sojourn-time histogram (milliseconds), the only hot-path
// addition. The queue's own counters are instrumented separately via
// queue.Instrument. A nil registry is a no-op.
func (l *Link) Instrument(reg *metrics.Registry, name string) {
	if reg == nil {
		return
	}
	l.sojourn = reg.Histogram(name+".sojourn_ms", sojournBuckets)
	busy := reg.Gauge(name + ".busy_seconds")
	pkts := reg.Counter(name + ".delivered_packets")
	bytes := reg.Counter(name + ".delivered_bytes")
	occMax := reg.Gauge(name + ".occupancy_max_packets")
	reg.OnCollect(func() {
		busy.Set(l.BusyTime().Seconds())
		pkts.Set(l.deliveredPackets)
		bytes.Set(int64(l.deliveredBytes))
		occMax.Set(l.occ.Max())
	})
}

// DeliveredPackets returns the count of fully transmitted packets.
func (l *Link) DeliveredPackets() int64 { return l.deliveredPackets }

// DeliveredBytes returns the bytes fully transmitted.
func (l *Link) DeliveredBytes() units.ByteSize { return l.deliveredBytes }
