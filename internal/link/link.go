// Package link models a unidirectional point-to-point link: a finite-rate
// transmitter fed by an output queue, followed by a fixed propagation
// delay. This is the "store-and-forward output-queued port" abstraction
// the paper's single-bottleneck analysis assumes.
//
// Utilization — the paper's primary metric — is measured here exactly:
// the transmitter accumulates busy time, so utilization over a window is
// busy-time divided by wall-time with no sampling error. Queue occupancy
// and queueing delay are measured here too, whatever the discipline: the
// link is the only caller of its queue.
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

// Link is a unidirectional link. A packet starts transmission when the
// transmitter frees up after the packets ahead of it, start = max(now,
// free), and arrives one transmission time and one delay later. On a
// pipe and under a queue.FIFO (drop-tail, RED) that start is known when
// the packet is offered, so the link posts its arrival then — one kernel
// event per packet — and keeps the waiting packets as values in a line
// it pops lazily. A discipline that decides at dequeue (CoDel) takes a
// transmit-done event per packet. A link told to hand off (SetHandOff)
// spends no event at all on a packet whose receiver takes it when it is
// admitted. Create with New or NewPipe; a Link must not be copied after
// first use.
type Link struct {
	name  string
	sched *sim.Scheduler
	rate  units.BitRate
	delay units.Duration
	q     queue.Queue // nil on a pipe
	fifo  queue.FIFO  // q as a FIFO, nil on the transmit-done path
	dst   packet.Handler
	wire  *sim.Lane

	// free is when the transmitter finishes the packets it was given
	// (before the epoch until it is given one), work the sum of their
	// transmission times: the busy time is work less what is left.
	free units.Time
	work units.Duration
	line queue.Ring[slot] // a FIFO's waiting packets
	busy bool             // the transmit-done path is sending
	// ahead is set once the link is offered a packet ahead of the clock
	// (a reverse path a hand-off sends into): work then counts
	// transmissions still to come at the real time, and BusyTime refuses.
	ahead bool

	// handOff is set by SetHandOff, and sink is what it named for the
	// packet being handed off.
	handOff func(*packet.Packet) packet.Handler
	sink    packet.Handler

	// occ is the queue's length over time and sojourn, once instrumented,
	// the departures' queueing delays in milliseconds.
	occ     stats.TimeWeighted
	sojourn *metrics.Histogram

	dropPool *packet.Pool // takes back rejected packets (SetDropPool)
	// aud, when non-nil, receives violations and books keeps the queue's
	// ledger; audSent is the last offer's instant, audEnd and audBusy the
	// last transmission's end and the transmissions' summed times.
	aud     *audit.Auditor
	books   *queue.Books
	audSent units.Time
	audEnd  units.Time
	audBusy units.Duration

	// OnDequeue, if set, observes each packet the queue admits with its
	// queueing delay, start - p.Enqueued, reported at admission by a FIFO
	// and at the start otherwise: count a packet in a window by its start.
	OnDequeue func(p *packet.Packet, queued units.Duration)
}

// slot is a waiting packet as values: by the time it is popped the
// packet may have arrived and been recycled.
type slot struct {
	start, enq units.Time
	size       units.ByteSize
}

// Link event opcodes (see sim.Actor): opTxDone, the transmit-done path's
// transmitter is free; opArrive, a packet reaches dst; opHandOff, a packet
// reaches the receiver SetHandOff named (dispatched ahead, see deliver).
const (
	opTxDone int32 = iota
	opArrive
	opHandOff
)

// OnEvent implements sim.Actor.
func (l *Link) OnEvent(op int32, arg any) {
	switch op {
	case opArrive:
		l.arrive(arg.(*packet.Packet), l.dst)
	case opHandOff:
		// deliver set the clock to this arrival; the check is the target
		// of the auditmutation build's seeded hand-off bug.
		if at := l.free.Add(l.delay); l.aud != nil && l.sched.Now() != at {
			l.aud.Violationf(l.sched.Now(), "link:"+l.name, "arrival-instant",
				"handed a packet over at %v; it arrives at %v", l.sched.Now(), at)
		}
		l.arrive(arg.(*packet.Packet), l.sink)
	default:
		l.busy = false
		if l.q.Len() > 0 {
			l.startNext()
		}
	}
}

// New returns a link transmitting at rate with one-way propagation delay d,
// buffered by q, delivering to dst.
func New(name string, sched *sim.Scheduler, rate units.BitRate, d units.Duration, q queue.Queue, dst packet.Handler) *Link {
	l := NewPipe(name, sched, rate, d, dst)
	l.q = q
	l.fifo, _ = q.(queue.FIFO)
	return l
}

// NewPipe returns a link with no queue, transmitting at rate with one-way
// propagation delay d, delivering to dst: it never drops and is not
// measured. The dumbbell's access and reverse links and the parking
// lot's are pipes.
func NewPipe(name string, sched *sim.Scheduler, rate units.BitRate, d units.Duration, dst packet.Handler) *Link {
	if rate <= 0 {
		panic("link: non-positive rate")
	}
	if d < 0 {
		panic("link: negative delay")
	}
	l := &Link{name: name, sched: sched, rate: rate, delay: d, dst: dst, free: units.Epoch - 1}
	l.wire = sched.NewLane(l, opArrive)
	return l
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// Rate returns the link's transmission rate.
func (l *Link) Rate() units.BitRate { return l.rate }

// Delay returns the link's one-way propagation delay.
func (l *Link) Delay() units.Duration { return l.delay }

// Queue returns the link's output queue, its line brought up to now.
func (l *Link) Queue() queue.Queue {
	l.sync()
	return l.q
}

// SetAuditor attaches an invariant checker (nil, the default, disables
// it): the link refuses and reports a released packet (see packet.Pool)
// when offered and when it arrives, and checks that offers never go back
// in time, that free never goes back, that transmissions never overlap
// and add up to the busy time, and that a packet handed off arrives on
// time. It enters every offer to its queue and every departure from it
// in a queue.Books, which checks the queue's own books against them. Set
// it before the first packet.
func (l *Link) SetAuditor(a *audit.Auditor) {
	l.aud, l.books = a, nil
	if a != nil && l.q != nil {
		l.books = queue.NewBooks(l.q, a, l.name)
	}
}

// SetHandOff makes the link ask receiver, for each packet it admits,
// where the packet's path ends, and hand the packet to the handler it
// names at once, the clock reading the packet's arrival (see
// sim.Scheduler.DispatchAhead), instead of posting its arrival: it
// spends no kernel event on it. receiver names only a handler whose
// reaction depends on nothing but the packets of the same flow before
// it, which the link delivers in order, and which reacts at once (a
// tcp.Receiver that does not delay its ACKs); it returns nil for any
// other path, which keeps the lane. Whatever else sends into the
// receivers' reverse paths must then send in arrival order too — a timer
// firing at the real time would send behind an ACK sent ahead (the
// send-monotone audit catches it). It applies to pipes and queue.FIFO
// links; a transmit-done link (CoDel) posts every arrival. A nil
// receiver, the default, turns it off.
func (l *Link) SetHandOff(receiver func(*packet.Packet) packet.Handler) { l.handOff = receiver }

// SetDropPool makes the link release every packet its queue rejects into
// pl, the pool the packets' endpoints draw from. The link must run on the
// scheduler that owns pl (see packet.Packet on ownership); a nil pool
// (the default) leaves rejected packets to the garbage collector.
func (l *Link) SetDropPool(pl *packet.Pool) { l.dropPool = pl }

// Handle implements packet.Handler so links compose directly with each
// other and with protocol agents.
func (l *Link) Handle(p *packet.Packet) { l.Send(p) }

// Send offers a packet to the link. If the output queue rejects it the
// packet is dropped silently (TCP discovers the loss end-to-end, exactly
// as with a real drop-tail router).
func (l *Link) Send(p *packet.Packet) {
	now := l.sched.Now()
	if l.aud != nil {
		if now < l.audSent {
			l.aud.Violationf(now, "link:"+l.name, "send-monotone",
				"offered a packet at %v, after one offered at %v", now, l.audSent)
		}
		l.audSent = now
		if p.Released() {
			// A poisoned packet has no meaningful size to serialize; it
			// goes no further.
			l.aud.Violationf(now, "link:"+l.name, "packet-use-after-release",
				"offered a packet its endpoint had already released")
			return
		}
	}
	if l.sched.Ahead() {
		l.ahead = true
	}
	switch {
	case l.q == nil:
		l.transmit(p, now)
		l.deliver(p, now)
		return
	case l.fifo == nil:
		ok := l.q.Enqueue(p, now)
		if l.books != nil {
			l.books.Offer(p.Size, ok, now)
		}
		if !ok {
			l.dropPool.PutDropped(p)
			return
		}
		l.occ.Set(float64(l.q.Len()), now)
		if !l.busy {
			l.startNext()
		}
		return
	}
	// A packet that started before now has left the line; one starting
	// exactly now still counts, and p waits too if the transmitter frees
	// up exactly now, as if p had come before that transmit completion.
	l.advance(now, false)
	ok := l.fifo.Admit(p, now)
	if l.books != nil {
		l.books.Offer(p.Size, ok, now)
	}
	if !ok {
		l.dropPool.PutDropped(p)
		return
	}
	waits := l.free >= now
	start := l.transmit(p, now)
	l.occ.Set(float64(l.line.Len()+1), now)
	l.line.Push(slot{start: start, enq: now, size: p.Size})
	if !waits {
		l.advance(now, true)
	}
	if l.OnDequeue != nil {
		l.OnDequeue(p, start.Sub(now))
	}
	l.deliver(p, now)
}

// transmit gives p to the transmitter; it returns p's start. The caller
// then puts p on the wire (deliver, or the wire itself).
func (l *Link) transmit(p *packet.Packet, now units.Time) units.Time {
	start := max(now, l.free)
	if mutateStartAtNow {
		start = now
	}
	tx := units.TransmissionTime(p.Size, l.rate)
	if l.aud != nil {
		l.auditTransmit(now, start, tx)
	}
	l.free = start.Add(tx)
	l.work += tx
	return start
}

// auditTransmit checks a transmission from start lasting tx against the
// ones before it, in the order the transmitter is given them: the free
// time must not go back and the transmission must not begin before the
// previous one ended. The link checks them here rather than at the
// arrivals, which a hand-off interleaves out of that order. When the
// clock reads the real time, it also checks BusyTime, the numerator of
// the link's utilization, before the update: it must be the
// transmissions' summed times less what is left of the last one, and
// cannot exceed the time elapsed. A link ever offered packets ahead of
// the clock has no busy time to check (see BusyTime).
func (l *Link) auditTransmit(now, start units.Time, tx units.Duration) {
	comp, end := "link:"+l.name, start.Add(tx)
	if end < l.free {
		l.aud.Violationf(now, comp, "free-monotone",
			"the transmitter's free time went back from %v to %v", l.free, end)
	}
	if start < l.audEnd {
		l.aud.Violationf(now, comp, "serialization",
			"a transmission began at %v, before the previous one ended at %v", start, l.audEnd)
	}
	if !l.ahead {
		busy, want := l.BusyTime(), l.audBusy-max(0, l.audEnd.Sub(now))
		if busy != want || busy > now.Sub(units.Epoch) {
			l.aud.Violationf(now, comp, "busy-accounting",
				"busy %v, but the transmissions took %v and %v has elapsed", busy, want, now.Sub(units.Epoch))
		}
	}
	l.audEnd, l.audBusy = end, l.audBusy+tx
}

// deliver sends p, the packet transmit was just given, toward dst: the
// transmitter finishes it at free and it arrives one delay later. A link
// that hands off gives it to the receiver SetHandOff names now,
// dispatched ahead to that arrival; otherwise its arrival waits in the
// wire's lane. It is the last use of p on the offer's path: the receiver
// may release p.
func (l *Link) deliver(p *packet.Packet, now units.Time) {
	if l.handOff != nil {
		if s := l.handOff(p); s != nil {
			at := l.free.Add(l.delay)
			if mutateHandOffAtOffer {
				at = now
			}
			l.sink = s
			l.sched.DispatchAhead(at, l, opHandOff, p)
			return
		}
	}
	l.wire.PostAfter(l.free.Sub(now)+l.delay, p)
}

// advance takes the packets that started before now, or at now as well
// when inclusive, out of a FIFO's line.
func (l *Link) advance(now units.Time, inclusive bool) {
	for l.line.Len() > 0 {
		s := l.line.Head()
		if s.start > now || s.start == now && !inclusive {
			return
		}
		l.line.Pop()
		l.fifo.Depart(s.size, s.start)
		if l.books != nil {
			l.books.Depart(s.size, s.enq, s.start)
		}
		l.observe(s.enq, s.start)
		l.occ.Set(float64(l.line.Len()), s.start)
	}
}

// sync brings a FIFO's line up to now: a read after Run(t) counts a
// packet starting at t as departed.
func (l *Link) sync() { l.advance(l.sched.Now(), true) }

// observe records the sojourn of a packet admitted at enq and started at
// start.
func (l *Link) observe(enq, start units.Time) {
	if l.sojourn != nil {
		l.sojourn.Observe(start.Sub(enq).Milliseconds())
	}
}

// startNext dequeues and transmits the head packet on the transmit-done
// path; the transmitter is idle and the queue non-empty.
func (l *Link) startNext() {
	now := l.sched.Now()
	p := l.q.Dequeue(now)
	if l.books != nil {
		l.books.Dequeued(p, now)
	}
	// An AQM may drop at dequeue, so the length is read even when nothing
	// comes out.
	l.occ.Set(float64(l.q.Len()), now)
	if p == nil {
		return
	}
	l.observe(p.Enqueued, now)
	if l.OnDequeue != nil {
		l.OnDequeue(p, now.Sub(p.Enqueued))
	}
	l.busy = true
	l.transmit(p, now)
	l.wire.PostAfter(l.free.Sub(now)+l.delay, p)
	l.sched.PostAt(l.free, l, opTxDone, nil)
}

// arrive hands p to to, dst or the receiver SetHandOff named. An auditor
// refuses it if it was released on the way.
func (l *Link) arrive(p *packet.Packet, to packet.Handler) {
	if l.aud != nil && p.Released() {
		l.aud.Violationf(l.sched.Now(), "link:"+l.name, "packet-use-after-release",
			"a packet was released while the link held it")
		return
	}
	to.Handle(p)
}

// BusyTime returns the cumulative time the transmitter has spent sending,
// including the in-progress transmission up to now. It panics on a link
// that has been offered a packet ahead of the clock (see
// sim.Scheduler.Ahead), whose transmissions do not follow the real time.
func (l *Link) BusyTime() units.Duration {
	if l.ahead {
		panic("link: " + l.name + " has no busy time: it was offered packets ahead of the clock")
	}
	return l.work - max(0, l.free.Sub(l.sched.Now()))
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
	l.occ.Set(float64(l.Queue().Len()), l.sched.Now())
}

// Occupancy returns the queue's time-averaged length in packets up to
// now and its peak, since the last RestartOccupancy (since the first
// enqueue if there was none).
func (l *Link) Occupancy() (mean float64, peak int) {
	l.sync()
	return l.occ.Mean(l.sched.Now()), int(l.occ.Max())
}

// Instrument registers the link's telemetry into reg under name: busy
// seconds, delivered packet/byte counts and the queue's peak occupancy,
// published by a snapshot-time collector, a per-packet sojourn-time
// histogram (milliseconds), the only hot-path addition, and then its
// queue's counters (queue.Instrument). A nil registry, or a pipe, is a
// no-op.
func (l *Link) Instrument(reg *metrics.Registry, name string) {
	if reg == nil || l.q == nil {
		return
	}
	l.sojourn = reg.Histogram(name+".sojourn_ms", sojournBuckets)
	busy := reg.Gauge(name + ".busy_seconds")
	pkts := reg.Counter(name + ".delivered_packets")
	bytes := reg.Counter(name + ".delivered_bytes")
	occMax := reg.Gauge(name + ".occupancy_max_packets")
	reg.OnCollect(func() {
		busy.Set(l.BusyTime().Seconds())
		pkts.Set(l.DeliveredPackets())
		bytes.Set(int64(l.DeliveredBytes()))
		occMax.Set(l.occ.Max())
	})
	queue.Instrument(reg, name, l.q)
}

// DeliveredPackets returns the count of packets the transmitter has put
// on the wire, the one being sent included: its queue's departures.
func (l *Link) DeliveredPackets() int64 { return l.Queue().Stats().DequeuedPackets }

// DeliveredBytes returns the bytes of the packets DeliveredPackets
// counts.
func (l *Link) DeliveredBytes() units.ByteSize { return l.Queue().Stats().DequeuedBytes }
