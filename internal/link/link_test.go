package link

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
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

// TestAuditedLinkRefusesReleasedPackets: an audited link reports a packet
// that was already released to its pool — offered after release, or
// released while the link still held it — and an unaudited link does not
// look.
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

	s, l, c := newTestLink(t, 10*units.Mbps, units.Millisecond, 10)
	aud := audit.New()
	l.SetAuditor(aud)
	stale := mkpkt(0, 1000)
	poison.Put(stale)
	l.Send(stale)
	l.Send(mkpkt(1, 1000))
	s.Run(units.Epoch.Add(units.Second))
	if count(aud) != 1 || len(c.pkts) != 1 || c.pkts[0].Seq != 1 {
		t.Errorf("released packet offered: %d reports, %d delivered; want 1 report and only the live packet delivered (%v)",
			count(aud), len(c.pkts), aud)
	}

	s, l, _ = newTestLink(t, 10*units.Mbps, units.Millisecond, 10)
	aud = audit.New()
	l.SetAuditor(aud)
	held := mkpkt(0, 1000)
	l.Send(held)
	poison.Put(held) // the sender let go of a packet it had handed on
	s.Run(units.Epoch.Add(units.Second))
	if count(aud) == 0 {
		t.Error("a packet released while the link was transmitting it went unreported")
	}
}
