package link

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/stats"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

type collector struct {
	pkts  []*packet.Packet
	times []units.Time
	sched *sim.Scheduler
}

func (c *collector) Handle(p *packet.Packet) {
	c.pkts = append(c.pkts, p)
	c.times = append(c.times, c.sched.Now())
}

func newTestLink(t *testing.T, rate units.BitRate, delay units.Duration, limit int) (*sim.Scheduler, *Link, *collector) {
	t.Helper()
	s := sim.NewScheduler()
	c := &collector{sched: s}
	l := New("test", s, rate, delay, queue.NewDropTail(queue.PacketLimit(limit)), c)
	return s, l, c
}

func mkpkt(seq int64, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Seq: seq, Size: size}
}

func TestSinglePacketLatency(t *testing.T) {
	// 1000 B at 10 Mb/s = 800 us serialization, plus 5 ms propagation.
	s, l, c := newTestLink(t, 10*units.Mbps, 5*units.Millisecond, 10)
	l.Send(mkpkt(0, 1000))
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.pkts))
	}
	want := units.Time(800*units.Microsecond + 5*units.Millisecond)
	if c.times[0] != want {
		t.Errorf("delivery at %v, want %v", c.times[0], want)
	}
}

func TestBackToBackSerialization(t *testing.T) {
	// Two packets sent at t=0 are delivered one transmission time apart:
	// the wire pipelines propagation but the transmitter serializes.
	s, l, c := newTestLink(t, 10*units.Mbps, 5*units.Millisecond, 10)
	l.Send(mkpkt(0, 1000))
	l.Send(mkpkt(1, 1000))
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(c.pkts))
	}
	gap := c.times[1].Sub(c.times[0])
	if gap != 800*units.Microsecond {
		t.Errorf("inter-delivery gap = %v, want 800us", gap)
	}
}

func TestDeliveryPreservesOrder(t *testing.T) {
	s, l, c := newTestLink(t, 100*units.Mbps, units.Millisecond, 100)
	for i := int64(0); i < 50; i++ {
		l.Send(mkpkt(i, 500))
	}
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 50 {
		t.Fatalf("delivered %d packets, want 50", len(c.pkts))
	}
	for i, p := range c.pkts {
		if p.Seq != int64(i) {
			t.Fatalf("out of order at %d: seq %d", i, p.Seq)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s, l, c := newTestLink(t, units.Mbps, 0, 2)
	pool := packet.NewPool(false)
	l.SetDropPool(pool)
	var sent []*packet.Packet
	for i := int64(0); i < 6; i++ {
		p := pool.Get()
		*p = *mkpkt(i, 1000)
		sent = append(sent, p)
	}
	// First packet starts transmitting immediately (dequeued), next two
	// occupy the buffer, the rest drop.
	for _, p := range sent {
		l.Send(p)
	}
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(c.pkts))
	}
	if c.pkts[2].Seq != 2 {
		t.Errorf("last delivery seq %d, want 2 (tail drop)", c.pkts[2].Seq)
	}
	if n := l.Queue().Stats().DroppedPackets; n != 3 {
		t.Fatalf("dropped %d packets, want 3", n)
	}
	// The link released what the queue rejected, and nothing else, into
	// its drop pool.
	if n := pool.Stats().DropReleases; n != 3 {
		t.Fatalf("%d packets released to the drop pool, want 3", n)
	}
	for i := 5; i >= 3; i-- {
		if pool.Get() != sent[i] {
			t.Errorf("the drop pool does not hold rejected packet %d", i)
		}
	}
	if st := pool.Stats(); st.Reuses != 3 || st.News != 6 {
		t.Errorf("pool stats %+v after taking three packets back out", st)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	// One 1000-B packet at 10 Mb/s in a 8 ms window: busy 800us -> 10%.
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 10)
	l.Send(mkpkt(0, 1000))
	s.Run(units.Time(8 * units.Millisecond))
	util := l.Utilization(0, 0)
	if util < 0.099 || util > 0.101 {
		t.Errorf("utilization = %v, want 0.1", util)
	}
}

func TestUtilizationFullySaturated(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 1000)
	// 100 x 1000 B = 80 ms of serialization; run exactly that long.
	for i := int64(0); i < 100; i++ {
		l.Send(mkpkt(i, 1000))
	}
	s.Run(units.Time(80 * units.Millisecond))
	util := l.Utilization(0, 0)
	if util < 0.999 {
		t.Errorf("utilization = %v, want 1.0", util)
	}
}

func TestUtilizationWindowed(t *testing.T) {
	// Snapshot busy time mid-run and measure only the second window.
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 1000)
	l.Send(mkpkt(0, 1000)) // busy only during the first window
	s.Run(units.Time(10 * units.Millisecond))
	snap := l.BusyTime()
	from := s.Now()
	s.Run(units.Time(20 * units.Millisecond))
	if u := l.Utilization(snap, from); u != 0 {
		t.Errorf("second-window utilization = %v, want 0", u)
	}
}

func TestBusyTimeIncludesInProgress(t *testing.T) {
	s := sim.NewScheduler()
	c := &collector{sched: s}
	l := New("t", s, units.Mbps, 0, queue.NewDropTail(queue.PacketLimit(10)), c)
	l.Send(mkpkt(0, 1000)) // 8 ms serialization
	s.Run(units.Time(4 * units.Millisecond))
	if bt := l.BusyTime(); bt != 4*units.Millisecond {
		t.Errorf("BusyTime mid-transmission = %v, want 4ms", bt)
	}
}

// TestBusyTimeRefusesAheadOffers: a pipe offered a packet while a
// handler runs ahead of the clock (a reverse path behind a hand-off)
// counts that transmission at a time still to come, so its busy time at
// the real time would be wrong, even negative; BusyTime panics naming
// the link instead. Until then it answers.
func TestBusyTimeRefusesAheadOffers(t *testing.T) {
	s := sim.NewScheduler()
	l := NewPipe("reverse7", s, units.Mbps, units.Millisecond, &collector{sched: s})
	l.Send(mkpkt(0, 1000)) // 8 ms serialization
	s.Run(units.Epoch.Add(10 * units.Millisecond))
	if bt := l.BusyTime(); bt != 8*units.Millisecond {
		t.Fatalf("BusyTime after an offer at the real time = %v, want 8ms", bt)
	}
	s.DispatchAhead(units.Epoch.Add(50*units.Millisecond), fnActor(func() { l.Send(mkpkt(1, 1000)) }), 0, nil)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "reverse7") {
			t.Errorf("BusyTime after an offer ahead of the clock: recovered %q, want a panic naming the link", msg)
		}
	}()
	l.BusyTime()
}

func TestOnDequeueReportsQueueingDelay(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 10)
	var delays []units.Duration
	l.OnDequeue = func(p *packet.Packet, d units.Duration) { delays = append(delays, d) }
	l.Send(mkpkt(0, 1000))
	l.Send(mkpkt(1, 1000))
	s.Run(units.Time(units.Second))
	if len(delays) != 2 {
		t.Fatalf("observed %d dequeues, want 2", len(delays))
	}
	if delays[0] != 0 {
		t.Errorf("head packet queueing delay = %v, want 0", delays[0])
	}
	if delays[1] != 800*units.Microsecond {
		t.Errorf("second packet queueing delay = %v, want 800us", delays[1])
	}
}

func TestDeliveredCounters(t *testing.T) {
	s, l, _ := newTestLink(t, 100*units.Mbps, 0, 100)
	for i := int64(0); i < 10; i++ {
		l.Send(mkpkt(i, 1500))
	}
	s.Run(units.Time(units.Second))
	if l.DeliveredPackets() != 10 {
		t.Errorf("DeliveredPackets = %d", l.DeliveredPackets())
	}
	if l.DeliveredBytes() != 15000 {
		t.Errorf("DeliveredBytes = %d", l.DeliveredBytes())
	}
}

func TestInvalidConstruction(t *testing.T) {
	s := sim.NewScheduler()
	q := queue.NewDropTail(queue.PacketLimit(1))
	for _, tc := range []struct {
		rate  units.BitRate
		delay units.Duration
	}{{0, 0}, {-1, 0}, {units.Mbps, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(rate=%v, delay=%v) did not panic", tc.rate, tc.delay)
				}
			}()
			New("bad", s, tc.rate, tc.delay, q, packet.HandlerFunc(func(*packet.Packet) {}))
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPipe(rate=%v, delay=%v) did not panic", tc.rate, tc.delay)
				}
			}()
			NewPipe("bad", s, tc.rate, tc.delay, packet.HandlerFunc(func(*packet.Packet) {}))
		}()
	}
}

func TestAccessorsAndHandle(t *testing.T) {
	s, l, c := newTestLink(t, 10*units.Mbps, 2*units.Millisecond, 4)
	if l.Name() != "test" || l.Rate() != 10*units.Mbps || l.Delay() != 2*units.Millisecond {
		t.Errorf("accessors: %q %v %v", l.Name(), l.Rate(), l.Delay())
	}
	if l.Queue() == nil {
		t.Error("Queue accessor nil")
	}
	// Handle is the packet.Handler adapter for Send.
	l.Handle(mkpkt(0, 1000))
	s.Run(units.Time(units.Second))
	if len(c.pkts) != 1 {
		t.Errorf("Handle did not deliver")
	}
}

func TestUtilizationEmptyWindow(t *testing.T) {
	s, l, _ := newTestLink(t, 10*units.Mbps, 0, 4)
	s.Run(units.Time(units.Second))
	if got := l.Utilization(0, units.Time(units.Second)); got != 0 {
		t.Errorf("empty-window utilization = %v, want 0", got)
	}
	if got := l.Utilization(0, units.Time(2*units.Second)); got != 0 {
		t.Errorf("future-window utilization = %v, want 0", got)
	}
}

func TestZeroDelayDeliversSynchronously(t *testing.T) {
	s, l, c := newTestLink(t, 10*units.Mbps, 0, 10)
	l.Send(mkpkt(0, 1000))
	s.Run(units.Time(800 * units.Microsecond))
	if len(c.pkts) != 1 {
		t.Fatalf("zero-delay link did not deliver at end of serialization")
	}
}

// TestBurstRidesOneHeapEntry: k packets serialized back to back onto a
// long wire are all in flight at once, yet the kernel holds one heap
// entry for the wire (the next arrival) and k-1 lane items behind it —
// and they arrive in order, one transmission time apart, with the
// auditor watching both the link and the kernel.
func TestBurstRidesOneHeapEntry(t *testing.T) {
	const k = 8
	s, l, c := newTestLink(t, 10*units.Mbps, 50*units.Millisecond, k)
	aud := audit.New()
	s.SetAuditor(aud)
	l.SetAuditor(aud)
	reg := metrics.New()
	s.Instrument(reg)
	for i := 0; i < k; i++ {
		l.Send(mkpkt(int64(i), 1000))
	}
	const tx = 800 * units.Microsecond
	s.Run(units.Epoch.Add(k * tx)) // all serialized, none arrived
	reg.Collect()
	heap, lane := reg.Gauge("sim.heap_depth").Value(), reg.Gauge("sim.lane_depth").Value()
	if len(c.pkts) != 0 || s.Pending() != k || heap != 1 || lane != k-1 {
		t.Fatalf("mid-flight: %d arrived, pending=%d heap=%v lane=%v; want 0, %d, 1, %d",
			len(c.pkts), s.Pending(), heap, lane, k, k-1)
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	s.Run(units.Epoch.Add(units.Second))
	if len(c.pkts) != k {
		t.Fatalf("delivered %d packets, want %d", len(c.pkts), k)
	}
	for i, p := range c.pkts {
		if want := units.Epoch.Add(units.Duration(i+1)*tx + 50*units.Millisecond); p.Seq != int64(i) || c.times[i] != want {
			t.Errorf("arrival %d: seq %d at %v, want seq %d at %v", i, p.Seq, c.times[i], i, want)
		}
	}
	reg.Collect()
	if n := reg.Counter("sim.lane_fallbacks").Value(); n != 0 {
		t.Errorf("a fixed-delay wire took the fallback %d times", n)
	}
	if aud.Count() != 0 {
		t.Fatalf("audit violations: %v", aud.Err())
	}
}

// TestAuditedLinkRefusesReleasedPackets: an audited link, on either
// path, or pipe reports a packet that was already released to its pool —
// offered after release, or released while the link still held it.
func TestAuditedLinkRefusesReleasedPackets(t *testing.T) {
	count := func(aud *audit.Auditor) (n int) {
		for _, v := range aud.Violations() {
			if v.Invariant == "packet-use-after-release" {
				n++
			}
		}
		return n
	}
	poison := packet.NewPool(true)
	kind := []string{"link", "codel link", "pipe"}
	for i, build := range []func(*sim.Scheduler, *audit.Auditor, packet.Handler) packet.Handler{
		func(s *sim.Scheduler, aud *audit.Auditor, dst packet.Handler) packet.Handler {
			l := New("link", s, 10*units.Mbps, units.Millisecond, queue.NewDropTail(queue.PacketLimit(10)), dst)
			l.SetAuditor(aud)
			return l
		},
		func(s *sim.Scheduler, aud *audit.Auditor, dst packet.Handler) packet.Handler {
			l := New("codel", s, 10*units.Mbps, units.Millisecond, queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(10)}), dst)
			l.SetAuditor(aud)
			return l
		},
		func(s *sim.Scheduler, aud *audit.Auditor, dst packet.Handler) packet.Handler {
			p := NewPipe("pipe", s, 10*units.Mbps, units.Millisecond, dst)
			p.SetAuditor(aud)
			return p
		},
	} {
		run := func(offer func(h packet.Handler)) (*collector, *audit.Auditor) {
			s := sim.NewScheduler()
			c, aud := &collector{sched: s}, audit.New()
			offer(build(s, aud, c))
			s.Run(units.Epoch.Add(units.Second))
			return c, aud
		}
		c, aud := run(func(h packet.Handler) {
			stale := mkpkt(0, 1000)
			poison.Put(stale)
			h.Handle(stale)
			h.Handle(mkpkt(1, 1000))
		})
		if count(aud) != 1 || len(c.pkts) != 1 || c.pkts[0].Seq != 1 {
			t.Errorf("%s: released packet offered: %d reports, %d delivered; want 1 report and only the live packet delivered (%v)",
				kind[i], count(aud), len(c.pkts), aud)
		}
		_, aud = run(func(h packet.Handler) {
			held := mkpkt(0, 1000)
			h.Handle(held)
			poison.Put(held) // the sender let go of a packet it had handed on
		})
		if count(aud) == 0 {
			t.Errorf("%s: a packet released while the link held it went unreported", kind[i])
		}
	}
}

// shortDeparting counts half of each departure's bytes.
type shortDeparting struct{ *queue.DropTail }

func (q shortDeparting) Depart(size units.ByteSize, now units.Time) { q.DropTail.Depart(size/2, now) }

// overAdmitting admits past the limit it reports.
type overAdmitting struct{ *queue.DropTail }

func (overAdmitting) Limit() queue.Limit { return queue.PacketLimit(4) }

// TestAuditCatchesBrokenFIFOs plants a fault in a discipline the link
// drives by admission and departure (a queue.FIFO) and requires the
// link's books to name it.
func TestAuditCatchesBrokenFIFOs(t *testing.T) {
	for _, tc := range []struct {
		invariant string
		q         queue.FIFO
	}{
		{"dequeue-accounting", shortDeparting{queue.NewDropTail(queue.PacketLimit(10))}},
		{"backlog-limit", overAdmitting{queue.NewDropTail(queue.Limit{})}},
	} {
		s := sim.NewScheduler()
		l := New("broken", s, 10*units.Mbps, units.Millisecond, tc.q, &collector{sched: s})
		aud := audit.New()
		l.SetAuditor(aud)
		for i := int64(0); i < 8; i++ {
			l.Send(mkpkt(i, 1000))
		}
		s.Run(units.Epoch.Add(units.Second))
		if !hasViolation(aud, tc.invariant) {
			t.Errorf("%T: no %s violation, got %v", tc.q, tc.invariant, aud.Violations())
		}
	}
}

// hasViolation reports whether aud recorded a violation of invariant.
func hasViolation(aud *audit.Auditor, invariant string) bool {
	for _, v := range aud.Violations() {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// TestLinkMeasuresQueue: the link measures its queue's occupancy and the
// packets' sojourn times whatever the discipline. One burst of 120
// packets at t=0 meets a 100-packet buffer drained one packet per 8 ms:
// the first packet goes straight onto the wire and the next 100 queue.
// Drop-tail then holds 100, 99, ..., 1 packets for 8 ms each, so over
// [0, 400 ms] it averages 8 ms × (100 + ... + 51) / 400 ms = 75.5; a
// window reopened at 400 ms, with 50 left, sees none of that fill:
// 8 ms × (50 + ... + 1) / 600 ms = 17, peak 50. RED (weighted to track
// the burst) drops early and CoDel drops at dequeue once the delay has
// stood above target for an interval; their queue is only known to be
// there and within its limit.
func TestLinkMeasuresQueue(t *testing.T) {
	const limit, burst = 100, 120
	red := queue.DefaultRED(limit, 8*units.Millisecond, func() float64 { return 0.5 })
	red.Wq = 0.2
	for _, tc := range []struct {
		name string
		q    queue.Queue
		// fill and window are drop-tail's hand-computed means over
		// [0, 400 ms] and [400 ms, 1 s], with their peaks; zero for an AQM.
		fill, window         float64
		fillPeak, windowPeak int
	}{
		{name: "droptail", q: queue.NewDropTail(queue.PacketLimit(limit)),
			fill: 75.5, fillPeak: 100, window: 17, windowPeak: 50},
		{name: "red", q: queue.NewRED(red)},
		{name: "codel", q: queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(limit)})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.NewScheduler()
			l := New("test", s, units.Mbps, units.Millisecond, tc.q, &collector{sched: s})
			reg := metrics.New()
			l.Instrument(reg, "test")
			for i := int64(0); i < burst; i++ {
				l.Send(mkpkt(i, 1000))
			}
			check := func(span string, want float64, wantPeak int) {
				t.Helper()
				mean, peak := l.Occupancy()
				if tc.fill == 0 {
					if mean <= 0 || peak > limit {
						t.Errorf("%s: mean %v, peak %d; want a queue within the %d-packet limit", span, mean, peak, limit)
					}
					return
				}
				if math.Abs(mean-want) > 1e-9 || peak != wantPeak {
					t.Errorf("%s: mean %v, peak %d; want %v, %d", span, mean, peak, want, wantPeak)
				}
			}
			s.Run(units.Epoch.Add(400 * units.Millisecond))
			check("fill", tc.fill, tc.fillPeak)
			l.RestartOccupancy()
			s.Run(units.Epoch.Add(units.Second))
			check("window", tc.window, tc.windowPeak)

			soj := reg.Snapshot().Histograms["test.sojourn_ms"].Count
			if deq := tc.q.Stats().DequeuedPackets; soj != deq || deq == 0 {
				t.Errorf("sojourn_ms holds %d observations, want one per dequeued packet (%d)", soj, deq)
			}
		})
	}
}

// refLink is the event-driven link that drop-tail and RED ran on before
// the link learned each departure at admission, kept as the reference:
// the head packet starts when the transmitter goes idle, its transmit
// completion is an event, and its arrival another.
type refLink struct {
	s     *sim.Scheduler
	rate  units.BitRate
	delay units.Duration
	q     queue.Queue
	dst   packet.Handler

	busy      bool
	since     units.Time
	busyTotal units.Duration
	started   int64
	occ       stats.TimeWeighted
	sojourns  []units.Duration
}

const (
	refTxDone int32 = iota
	refArrive
)

func (r *refLink) Handle(p *packet.Packet) {
	now := r.s.Now()
	if !r.q.Enqueue(p, now) {
		return
	}
	r.occ.Set(float64(r.q.Len()), now)
	if !r.busy {
		r.startNext()
	}
}

func (r *refLink) startNext() {
	now := r.s.Now()
	p := r.q.Dequeue(now)
	r.occ.Set(float64(r.q.Len()), now)
	r.sojourns = append(r.sojourns, now.Sub(p.Enqueued))
	r.busy, r.since = true, now
	r.started++
	r.s.PostAfter(units.TransmissionTime(p.Size, r.rate), r, refTxDone, p)
}

func (r *refLink) OnEvent(op int32, arg any) {
	p := arg.(*packet.Packet)
	if op == refArrive {
		r.dst.Handle(p)
		return
	}
	r.busy = false
	r.busyTotal += r.s.Now().Sub(r.since)
	r.s.PostAfter(r.delay, r, refArrive, p)
	if r.q.Len() > 0 {
		r.startNext()
	}
}

func (r *refLink) busyTime() units.Duration {
	if r.busy {
		return r.busyTotal + r.s.Now().Sub(r.since)
	}
	return r.busyTotal
}

// sendAt is one offer of a schedule the twin tests replay.
type sendAt struct {
	at   units.Time
	size units.ByteSize
}

// offerer is the actor that replays a schedule: each event offers packet
// i, of the scheduled size and ECN-capable when i is even, to every
// handler in turn.
type offerer struct {
	sends []sendAt
	to    []packet.Handler
}

func (o *offerer) OnEvent(_ int32, arg any) {
	i := arg.(int)
	for _, h := range o.to {
		p := mkpkt(int64(i), o.sends[i].size)
		if i%2 == 0 {
			p.Flags |= packet.FlagECT
		}
		h.Handle(p)
	}
}

// twinSchedule draws n offers to a link of the given rate: sizes in
// multiples of grain bytes, with each send at the previous send's
// instant (a burst), a few grain transmission times later, exactly when
// the packets offered so far would finish transmitting (a send that
// lands on a departure), or after an idle spell. On a link whose
// transmission times are whole grains, every event falls on the grain's
// grid and same-instant ties abound.
func twinSchedule(rng *sim.RNG, n int, rate units.BitRate, grain units.ByteSize) []sendAt {
	sends := make([]sendAt, 0, n)
	tick := units.TransmissionTime(grain, rate)
	var at, free units.Time
	for i := 0; i < n; i++ {
		size := grain * units.ByteSize(1+rng.Intn(int(1500/grain)))
		switch k := rng.Intn(8); {
		case i == 0, k < 3: // same instant
		case k < 5:
			at = at.Add(tick * units.Duration(1+rng.Intn(6)))
		case k < 7:
			at = max(at, free)
		default:
			at = max(at, free).Add(tick * units.Duration(rng.Intn(200)))
		}
		free = max(at, free).Add(units.TransmissionTime(size, rate))
		sends = append(sends, sendAt{at: at, size: size})
	}
	return sends
}

// TestLinkMatchesEventDrivenReference: the link, which posts each
// arrival when it admits the packet, and the event-driven reference
// take the same offers on one scheduler — same-instant bursts, offers
// exactly on a departure, idle gaps — through the same discipline, and
// agree packet for packet on which packets are admitted, which are
// marked, and when each arrives, and at every checkpoint on busy time,
// packets put on the wire, queue length and the occupancy integral, and on
// every sojourn. Drop-tail runs with a packet and a byte limit, RED and
// RED-ECN with drops, and a pipe against an unlimited drop-tail; each at
// a grid rate (ties everywhere) and an off-grid one, with and without
// propagation delay. The link spends one kernel event per packet and
// never takes its lane's fallback. Each runs again with a TCP receiver
// behind both links, the link handing packets off to it: the ACKs then
// agree in number, order, instant, cumulative point and ECN echo, and
// the link spends no event on a packet at all.
func TestLinkMatchesEventDrivenReference(t *testing.T) {
	const n = 3000
	red := func(ecn bool) func(seed int64) queue.Queue {
		return func(seed int64) queue.Queue {
			return queue.NewRED(queue.REDConfig{Limit: queue.PacketLimit(8), MinThresh: 1, MaxThresh: 4, MaxP: 0.2,
				Wq: 0.2, MeanPacketTime: 500 * units.Microsecond, Rand: sim.NewRNG(seed).Float64, MarkECN: ecn})
		}
	}
	for _, disc := range []struct {
		name string
		q    func(seed int64) queue.Queue // nil: a pipe
	}{
		{"pipe", nil},
		{"droptail-pkts", func(int64) queue.Queue { return queue.NewDropTail(queue.PacketLimit(6)) }},
		{"droptail-bytes", func(int64) queue.Queue { return queue.NewDropTail(queue.ByteLimit(5000)) }},
		{"red", red(false)},
		{"red-ecn", red(true)},
	} {
		for ci, c := range []struct {
			rate  units.BitRate
			delay units.Duration
			grain units.ByteSize
		}{
			{8 * units.Mbps, 5 * units.Millisecond, 125},
			{8 * units.Mbps, 0, 125},
			{37 * units.Mbps, 60 * units.Millisecond, 1},
			{units.Gbps, 0, 1},
		} {
			for _, sink := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d", disc.name, ci)
				if sink {
					name += "/receiver"
				}
				t.Run(name, func(t *testing.T) {
					sends := twinSchedule(sim.NewRNG(int64(ci+1)), n, c.rate, c.grain)
					s := sim.NewScheduler()
					// want and got see what the links deliver, or with a sink
					// the ACKs the receivers behind them send.
					want, got := &collector{sched: s}, &collector{sched: s}
					refDst, dst := packet.Handler(want), packet.Handler(got)
					if sink {
						refDst, dst = tcp.NewReceiver(tcp.Config{}, s, want), tcp.NewReceiver(tcp.Config{}, s, got)
					}
					ref := &refLink{s: s, rate: c.rate, delay: c.delay, q: queue.NewDropTail(queue.Limit{}), dst: refDst}
					l := NewPipe("twin", s, c.rate, c.delay, dst)
					if disc.q != nil {
						ref.q = disc.q(int64(ci))
						l = New("twin", s, c.rate, c.delay, disc.q(int64(ci)), dst)
					}
					if sink {
						l.SetHandOff(func(*packet.Packet) packet.Handler { return dst })
					}
					var sojourns []units.Duration
					l.OnDequeue = func(_ *packet.Packet, d units.Duration) { sojourns = append(sojourns, d) }
					aud := audit.New()
					l.SetAuditor(aud)
					reg := metrics.New()
					s.Instrument(reg)
					l.Instrument(reg, "twin")
					o := &offerer{sends: sends, to: []packet.Handler{ref, l}}
					for i, sd := range sends {
						s.PostAt(sd.at, o, 0, i)
					}
					for at := units.Epoch; len(want.pkts) < n && at < units.Epoch.Add(100*units.Second); {
						at = at.Add(7 * units.Millisecond)
						s.Run(at)
						if disc.q == nil {
							continue
						}
						lm, lp := l.Occupancy()
						if l.BusyTime() != ref.busyTime() || l.DeliveredPackets() != ref.started ||
							l.Queue().Len() != ref.q.Len() || lm != ref.occ.Mean(at) || lp != int(ref.occ.Max()) {
							t.Fatalf("at %v: busy %v, delivered %d, queued %d, occupancy %v (peak %d); reference %v, %d, %d, %v (peak %v)",
								at, l.BusyTime(), l.DeliveredPackets(), l.Queue().Len(), lm, lp,
								ref.busyTime(), ref.started, ref.q.Len(), ref.occ.Mean(at), ref.occ.Max())
						}
					}
					if len(got.pkts) != len(want.pkts) || len(want.pkts) == 0 {
						t.Fatalf("delivered %d, reference %d", len(got.pkts), len(want.pkts))
					}
					for i := range got.pkts {
						g, w := got.pkts[i], want.pkts[i]
						if g.Seq != w.Seq || g.Ack != w.Ack || got.times[i] != want.times[i] || g.Flags != w.Flags {
							t.Fatalf("arrival %d: seq %d ack %d at %v flags %v; reference seq %d ack %d at %v flags %v",
								i, g.Seq, g.Ack, got.times[i], g.Flags, w.Seq, w.Ack, want.times[i], w.Flags)
						}
					}
					if disc.q != nil {
						if gs, ws := l.Queue().Stats(), ref.q.Stats(); gs != ws || ws.DroppedPackets == 0 {
							t.Errorf("queue stats %+v, reference %+v (want drops)", gs, ws)
						}
						if r, ok := ref.q.(*queue.RED); ok && r.Marked == 0 && disc.name == "red-ecn" {
							t.Error("RED-ECN marked nothing")
						}
						if len(sojourns) != len(ref.sojourns) {
							t.Fatalf("%d sojourns, reference %d", len(sojourns), len(ref.sojourns))
						}
						var sum float64
						for i := range sojourns {
							if sojourns[i] != ref.sojourns[i] {
								t.Fatalf("sojourn %d: %v, reference %v", i, sojourns[i], ref.sojourns[i])
							}
							sum += ref.sojourns[i].Milliseconds()
						}
						if h := reg.Snapshot().Histograms["twin.sojourn_ms"]; h.Count != int64(len(sojourns)) || h.Sum != sum {
							t.Errorf("sojourn_ms holds %d observations summing to %v ms, reference %d, %v ms", h.Count, h.Sum, len(sojourns), sum)
						}
					}
					// One event per offer, per reference transmission and
					// arrival, and one per packet the link delivered unless
					// it handed the packet off.
					reg.Collect()
					events, ahead := uint64(n+3*len(want.pkts)), int64(0)
					if sink {
						events, ahead = uint64(n+2*len(want.pkts)), int64(len(want.pkts))
					}
					if a := reg.Counter("sim.dispatch_ahead").Value(); s.Processed != events || a != ahead {
						t.Errorf("%d events, %d dispatched ahead; want %d and %d", s.Processed, a, events, ahead)
					}
					if f := reg.Counter("sim.lane_fallbacks").Value(); f != 0 {
						t.Errorf("%d arrivals took the lane fallback", f)
					}
					if aud.Count() != 0 {
						t.Errorf("audit: %v", aud.Err())
					}
				})
			}
		}
	}
}

// TestAuditCatchesOffersBackInTime: a link's offers never go back in
// time. Two receivers share one station's reverse pipe behind a link that
// hands both flows' packets off. Flow 2's receiver acks its segment at
// once — ahead, at 130.8 ms, when the link admits it at 110 ms — and
// flow 1's, a delayed-ACK receiver handed its segment at 20.8 ms, acks
// from its timer at the real time 120.8 ms: the pipe is offered an ACK
// behind one it already took, and reports send-monotone. With flow 1
// acking at once too, nothing is reported.
func TestAuditCatchesOffersBackInTime(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		s := sim.NewScheduler()
		aud := audit.New()
		rev := NewPipe("reverse", s, 100*units.Mbps, units.Millisecond, &collector{sched: s})
		rev.SetAuditor(aud)
		rcvs := map[packet.FlowID]packet.Handler{
			1: tcp.NewReceiver(tcp.Config{Flow: 1, DelayedAck: mixed}, s, rev),
			2: tcp.NewReceiver(tcp.Config{Flow: 2}, s, rev),
		}
		l := New("bottleneck", s, 10*units.Mbps, 20*units.Millisecond, queue.NewDropTail(queue.PacketLimit(10)), &collector{sched: s})
		l.SetHandOff(func(p *packet.Packet) packet.Handler { return rcvs[p.Flow] })
		l.SetAuditor(aud)
		for i, at := range []units.Duration{0, 110 * units.Millisecond} {
			p := mkpkt(0, 1000)
			p.Flow = packet.FlowID(i + 1)
			s.PostAt(units.Epoch.Add(at), fnActor(func() { l.Send(p) }), 0, nil)
		}
		s.Run(units.Epoch.Add(units.Second))
		if got := hasViolation(aud, "send-monotone"); got != mixed {
			t.Errorf("mixed early and late ACKs %v: send-monotone reported %v (%v)", mixed, got, aud.Violations())
		}
	}
}

// fnActor adapts a func to a sim.Actor.
type fnActor func()

func (f fnActor) OnEvent(int32, any) { f() }
