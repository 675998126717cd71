package topology

import (
	"fmt"
	"slices"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/link"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// buildSingle returns a one-station dumbbell: 10 Mb/s bottleneck, 100 ms
// RTT, 1000-B segments (BDP = 125 packets), with the given buffer.
func buildSingle(bufferPkts int) (*sim.Scheduler, *Dumbbell) {
	s := sim.NewScheduler()
	d := NewDumbbell(Config{
		Sched:           s,
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(bufferPkts),
		Stations:        1,
		RTTMin:          100 * units.Millisecond,
		RTTMax:          100 * units.Millisecond,
	})
	return s, d
}

// measureUtil runs a long-lived flow for warmup+window and returns the
// bottleneck utilization over the measurement window.
func measureUtil(t *testing.T, bufferPkts int) float64 {
	t.Helper()
	s, d := buildSingle(bufferPkts)
	f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000})
	f.Sender.Start()
	warmup := units.Time(10 * units.Second)
	s.Run(warmup)
	busy := d.Bottleneck.BusyTime()
	s.Run(warmup + units.Time(20*units.Second))
	return d.Bottleneck.Utilization(busy, warmup)
}

func TestSingleFlowRuleOfThumbFullUtilization(t *testing.T) {
	// Fig. 3: B = RTT x C = 125 packets keeps the link busy.
	util := measureUtil(t, 125)
	if util < 0.97 {
		t.Errorf("utilization with B=BDP = %v, want >= 0.97", util)
	}
}

func TestSingleFlowUnderbufferedLosesThroughput(t *testing.T) {
	// Fig. 4: B = BDP/8 starves the link while the sender pauses.
	util := measureUtil(t, 125/8)
	if util > 0.93 {
		t.Errorf("utilization underbuffered = %v, want < 0.93", util)
	}
	if util < 0.5 {
		t.Errorf("utilization underbuffered = %v, implausibly low", util)
	}
}

func TestSingleFlowOverbufferedKeepsQueueStanding(t *testing.T) {
	// Fig. 5: B = 2 x BDP never drains; full utilization plus a standing
	// queue (extra delay).
	s, d := buildSingle(250)
	f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000})
	f.Sender.Start()
	warmup := units.Time(10 * units.Second)
	s.Run(warmup)
	busy := d.Bottleneck.BusyTime()
	s.Run(warmup + units.Time(20*units.Second))
	util := d.Bottleneck.Utilization(busy, warmup)
	if util < 0.99 {
		t.Errorf("utilization overbuffered = %v, want ~1", util)
	}
	if occ, _ := d.Bottleneck.Occupancy(); occ < 30 {
		t.Errorf("mean queue occupancy = %v packets, want a standing queue", occ)
	}
}

func TestOrderingOfTheThreeRegimes(t *testing.T) {
	// The paper's Figs. 3-5 in one assertion: under < exact <= over.
	under := measureUtil(t, 125/8)
	exact := measureUtil(t, 125)
	over := measureUtil(t, 375)
	if !(under < exact && exact <= over+0.005) {
		t.Errorf("regime ordering violated: under=%v exact=%v over=%v", under, exact, over)
	}
}

func TestShortFlowAcrossDumbbell(t *testing.T) {
	s, d := buildSingle(100)
	f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 30})
	var done units.Time = units.Never
	f.Receiver.OnComplete = func(now units.Time) { done = now }
	f.Sender.Start()
	s.Run(units.Time(10 * units.Second))
	if done == units.Never {
		t.Fatal("short flow did not complete")
	}
	// 30 segments, IW 2: bursts 2,4,8,16 over 4 RTT-ish of 100 ms.
	if done < units.Time(300*units.Millisecond) || done > units.Time(800*units.Millisecond) {
		t.Errorf("completion at %v, want ~400-500ms", done)
	}
	if f.Sender.Stats().Retransmits != 0 {
		t.Errorf("lossless short flow retransmitted: %+v", f.Sender.Stats())
	}
}

func TestStationRTTsSpanRange(t *testing.T) {
	s := sim.NewScheduler()
	d := NewDumbbell(Config{
		Sched:           s,
		RNG:             sim.NewRNG(1),
		BottleneckRate:  units.OC3,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(100),
		Stations:        200,
		RTTMin:          25 * units.Millisecond,
		RTTMax:          300 * units.Millisecond,
	})
	var lo, hi units.Duration = units.Minute, 0
	for i := 0; i < d.NumStations(); i++ {
		rtt := d.Station(i).RTT
		if rtt < 25*units.Millisecond || rtt > 300*units.Millisecond {
			t.Fatalf("station %d RTT %v out of range", i, rtt)
		}
		if rtt < lo {
			lo = rtt
		}
		if rtt > hi {
			hi = rtt
		}
	}
	if hi-lo < 150*units.Millisecond {
		t.Errorf("station RTTs poorly spread: [%v, %v]", lo, hi)
	}
}

func TestRTTFidelity(t *testing.T) {
	// The SRTT a lossless flow measures should match the station's
	// configured propagation RTT plus small serialization terms.
	s, d := buildSingle(1000)
	f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 4, MaxWindow: 1})
	f.Sender.Start()
	s.Run(units.Time(5 * units.Second))
	srtt := f.Sender.SRTT()
	// Propagation 100 ms + 1000 B at 100 Mb/s access (80 us) + 1000 B at
	// 10 Mb/s bottleneck (800 us) + ack serialization (negligible).
	if srtt < 100*units.Millisecond || srtt > 103*units.Millisecond {
		t.Errorf("SRTT = %v, want ~100.9ms", srtt)
	}
}

func TestAggregateWindowSumsSenders(t *testing.T) {
	s, d := buildSingle(100)
	f1 := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000})
	f2 := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000})
	_ = s
	want := f1.Sender.Cwnd() + f2.Sender.Cwnd()
	if got := d.AggregateWindow(); got != want {
		t.Errorf("AggregateWindow = %v, want %v", got, want)
	}
}

func TestManyFlowsShareBottleneckFairly(t *testing.T) {
	// 10 long flows with identical RTTs over a well-buffered bottleneck:
	// utilization ~1 and no flow starves.
	s := sim.NewScheduler()
	d := NewDumbbell(Config{
		Sched:           s,
		RNG:             sim.NewRNG(7),
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(125),
		Stations:        10,
		RTTMin:          90 * units.Millisecond,
		RTTMax:          110 * units.Millisecond,
	})
	for i := 0; i < 10; i++ {
		f := d.AddFlow(d.Station(i), tcp.Config{SegmentSize: 1000})
		f.Sender.Start()
	}
	warmup := units.Time(10 * units.Second)
	s.Run(warmup)
	busy := d.Bottleneck.BusyTime()
	var sentAtWarmup []int64
	for _, f := range d.Flows() {
		sentAtWarmup = append(sentAtWarmup, f.Sender.Stats().SegmentsSent)
	}
	s.Run(warmup + units.Time(30*units.Second))
	if util := d.Bottleneck.Utilization(busy, warmup); util < 0.97 {
		t.Errorf("utilization = %v, want ~1", util)
	}
	for i, f := range d.Flows() {
		sent := f.Sender.Stats().SegmentsSent - sentAtWarmup[i]
		// Fair share is 125 pkt/s each (1250 pkt/s over 10 flows);
		// require everyone got at least a fifth of that.
		if sent < 30*125/5 {
			t.Errorf("flow %d sent only %d segments in 30s", i, sent)
		}
	}
}

func TestRemoveFlowAllowsReuse(t *testing.T) {
	s, d := buildSingle(100)
	f1 := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 5})
	f1.Sender.Start()
	s.Run(units.Time(5 * units.Second))
	if !f1.Sender.Finished() {
		t.Fatal("first flow did not finish")
	}
	d.RemoveFlow(f1)
	f2 := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 5})
	f2.Sender.Start()
	s.Run(units.Time(10 * units.Second))
	if !f2.Sender.Finished() {
		t.Fatal("second flow on reused station did not finish")
	}
	// A removed flow leaves Flows(); the others keep their order, and a
	// second removal changes nothing.
	f3 := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 5})
	f4 := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000, TotalSegments: 5})
	d.RemoveFlow(f3)
	d.RemoveFlow(f3)
	if got := d.Flows(); !slices.Equal(got, []*Flow{f2, f4}) {
		t.Errorf("Flows() = %v, want [f2 f4]", got)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Sched:           sim.NewScheduler(),
			BottleneckRate:  units.Mbps,
			BottleneckDelay: units.Millisecond,
			Buffer:          queue.PacketLimit(10),
			Stations:        1,
			RTTMin:          10 * units.Millisecond,
			RTTMax:          10 * units.Millisecond,
		}
	}
	mustPanic := func(name string, mutate func(*Config)) {
		cfg := base()
		mutate(&cfg)
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		NewDumbbell(cfg)
	}
	mustPanic("nil sched", func(c *Config) { c.Sched = nil })
	mustPanic("zero stations", func(c *Config) { c.Stations = 0 })
	mustPanic("zero rate", func(c *Config) { c.BottleneckRate = 0 })
	mustPanic("bad rtt range", func(c *Config) { c.RTTMax = c.RTTMin / 2 })
	mustPanic("bottleneck delay too large", func(c *Config) { c.BottleneckDelay = 20 * units.Millisecond })
	mustPanic("random rtts without rng", func(c *Config) { c.RTTMax = 2 * c.RTTMin })
}

func TestCustomQueueDiscipline(t *testing.T) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(3)
	d := NewDumbbell(Config{
		Sched:           s,
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 10 * units.Millisecond,
		NewQueue: func() queue.Queue {
			return queue.NewRED(queue.DefaultRED(125, 800*units.Microsecond, rng.Float64))
		},
		Stations: 1,
		RTTMin:   100 * units.Millisecond,
		RTTMax:   100 * units.Millisecond,
	})
	if _, ok := d.Bottleneck.Queue().(*queue.RED); !ok {
		t.Errorf("bottleneck queue is %T, want the custom RED", d.Bottleneck.Queue())
	}
	f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: 1000})
	f.Sender.Start()
	s.Run(units.Time(20 * units.Second))
	busy := d.Bottleneck.BusyTime()
	s.Run(units.Time(40 * units.Second))
	if util := d.Bottleneck.Utilization(busy, units.Time(20*units.Second)); util < 0.8 {
		t.Errorf("RED bottleneck utilization = %v, want reasonable throughput", util)
	}
}

// TestOnePoolPerView: every flow of a dumbbell shares its one packet
// pool, and two dumbbells built side by side never share one (nor a
// sender arena), so a pool is only ever touched by the goroutine running
// its scheduler; under audit the pool poisons instead of recycling; and
// every link that drops releases into the pool of the endpoints it
// serves.
func TestOnePoolPerView(t *testing.T) {
	build := func(aud *audit.Auditor) *Dumbbell {
		return NewDumbbell(Config{
			Sched:           sim.NewScheduler(),
			BottleneckRate:  10 * units.Mbps,
			BottleneckDelay: 10 * units.Millisecond,
			Buffer:          queue.PacketLimit(50),
			Stations:        6,
			RTTMin:          100 * units.Millisecond,
			RTTMax:          100 * units.Millisecond,
			Auditor:         aud,
		})
	}
	d := build(nil)
	for i := 0; i < d.NumStations(); i++ {
		f := d.AddFlow(d.Station(i), tcp.Config{})
		f.Sender.Start()
	}
	d.Config().Sched.Run(units.Time(units.Second))
	if st := d.PoolStats(); st.News == 0 || st.Reuses == 0 {
		t.Errorf("flows do not draw from and recycle into the dumbbell's pool: %+v", st)
	}
	p := d.pool.Get()
	d.pool.Put(p)
	if p.Released() || d.pool.Get() != p {
		t.Error("pool does not recycle")
	}
	d = build(audit.New())
	p = d.pool.Get()
	d.pool.Put(p)
	if !p.Released() {
		t.Error("audited dumbbell's pool does not poison released packets")
	}

	// A link that drops releases into the pool its endpoints draw from:
	// each dumbbell's bottleneck into its own, the parking lot's core links.
	overflow := func(l *link.Link, pool *packet.Pool, limit int) int64 {
		for i := 0; i < limit+2; i++ { // one transmitting, limit queued, one rejected
			p := pool.Get()
			p.Size = 1000
			l.Send(p)
		}
		return l.Queue().Stats().DroppedPackets
	}
	pair := [2]*Dumbbell{build(nil), build(nil)}
	if pair[0].pool == pair[1].pool || pair[0].slab == pair[1].slab {
		t.Error("two dumbbells share a pool or a sender arena")
	}
	for k, d := range pair {
		drops := overflow(d.Bottleneck, d.pool, 50)
		if got := d.PoolStats().DropReleases; drops != 1 || got != 1 {
			t.Errorf("dumbbell %d: %d drops, %d released to its pool, want 1 and 1", k, drops, got)
		}
	}
	lot := NewParkingLot(ParkingLotConfig{
		Sched:   sim.NewScheduler(),
		Rates:   []units.BitRate{10 * units.Mbps, 10 * units.Mbps},
		Delays:  []units.Duration{units.Millisecond, units.Millisecond},
		Buffers: []queue.Limit{queue.PacketLimit(5), queue.PacketLimit(5)},
	})
	for i, l := range lot.Links {
		if drops := overflow(l, lot.pool, 5); drops != 1 || lot.PoolStats().DropReleases != int64(i+1) {
			t.Errorf("parking-lot core link %d: %d drops, %d released in all, want 1 and %d", i, drops, lot.PoolStats().DropReleases, i+1)
		}
	}
}

// lossyThirty runs a lossy 30-flow drop-tail Reno dumbbell (60 Mb/s,
// 55-packet buffer) for 20 s, its kernel instrumented into reg, and
// returns its kernel events and the packets its bottleneck delivered.
func lossyThirty(t *testing.T, reg *metrics.Registry) (events, delivered int64) {
	t.Helper()
	const n = 30
	s := sim.NewScheduler()
	s.Instrument(reg)
	d := NewDumbbell(Config{
		Sched:           s,
		RNG:             sim.NewRNG(1),
		BottleneckRate:  60 * units.Mbps,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(55),
		Stations:        n,
		RTTMin:          50 * units.Millisecond,
		RTTMax:          150 * units.Millisecond,
	})
	rng := sim.NewRNG(2)
	for i := 0; i < n; i++ {
		f := d.AddFlow(d.Station(i), tcp.Config{SegmentSize: 1000})
		s.PostAt(units.Epoch.Add(units.Duration(rng.Uniform(0, float64(units.Second)))), f.Sender, tcp.OpStart, nil)
	}
	s.Run(units.Epoch.Add(20 * units.Second))
	if drops := d.Bottleneck.Queue().Stats().DroppedPackets; drops == 0 || d.Bottleneck.DeliveredPackets() == 0 {
		t.Fatalf("%d delivered, %d dropped: the run must deliver and lose packets", d.Bottleneck.DeliveredPackets(), drops)
	}
	return int64(s.Processed), d.Bottleneck.DeliveredPackets()
}

// TestEventBudgetPerPacket: a data packet and its ACK cost the kernel
// two events — the bottleneck's arrival off the access pipe and the
// ACK's arrival back at the sender off the reverse pipe; the bottleneck
// hands the packet to its receiver when it admits it. The lossy 30-flow
// dumbbell spends at most 2.1 events per packet the bottleneck
// delivers, timers and drops included. With an arrival event past the
// bottleneck it spent 3.03, with a transmit-done event per packet at the
// bottleneck as well 4.03, and with queued access and reverse links
// 6.09.
func TestEventBudgetPerPacket(t *testing.T) {
	events, delivered := lossyThirty(t, nil)
	perPacket := float64(events) / float64(delivered)
	t.Logf("%d events for %d delivered packets: %.3f per packet", events, delivered, perPacket)
	if perPacket > 2.1 {
		t.Errorf("%.3f kernel events per delivered packet, want at most 2.1", perPacket)
	}
}

// TestRTORearmsStayOffTheHeap: every new ACK moves its sender's
// retransmission deadline later, and the timer's heap entry stays where
// it is until the old deadline comes up (sim.Timer). The lossy 30-flow
// dumbbell re-keys at most 0.1 stale entries per delivered packet (0.034
// when written, against one removal and one push per ACK before), and a
// re-key is no event: the run still spends 2.025 events per packet.
func TestRTORearmsStayOffTheHeap(t *testing.T) {
	reg := metrics.New()
	events, delivered := lossyThirty(t, reg)
	reg.Collect()
	rekeys := float64(reg.Counter("sim.timer_rekeys").Value()) / float64(delivered)
	perPacket := fmt.Sprintf("%.3f", float64(events)/float64(delivered))
	t.Logf("%.3f re-keys and %s events per delivered packet", rekeys, perPacket)
	if rekeys == 0 || rekeys > 0.1 || perPacket != "2.025" {
		t.Errorf("%.3f re-keys and %s events per delivered packet, want (0, 0.1] and 2.025", rekeys, perPacket)
	}
}

// TestDelayedAckDumbbellKeepsLanes: a dumbbell whose first flow delays
// its ACKs posts every arrival past the bottleneck and hands nothing
// off, one whose first flow acks at once hands its segments off, and
// either refuses a later flow whose receiver acks otherwise, since one
// timer's ACK sent at the real time would queue behind ACKs sent ahead
// on its station's reverse pipe.
func TestDelayedAckDumbbellKeepsLanes(t *testing.T) {
	for _, delayed := range []bool{false, true} {
		s := sim.NewScheduler()
		reg := metrics.New()
		s.Instrument(reg)
		d := NewDumbbell(smallConfig(s))
		f := d.AddFlow(d.Station(0), tcp.Config{DelayedAck: delayed})
		f.Sender.Start()
		s.Run(units.Epoch.Add(2 * units.Second))
		reg.Collect()
		ahead := reg.Counter("sim.dispatch_ahead").Value()
		if f.Receiver.ReceivedSegments == 0 || (ahead > 0) != !delayed {
			t.Errorf("delayed ACKs %v: %d segments received, %d handed off", delayed, f.Receiver.ReceivedSegments, ahead)
		}
		if !panics(func() { d.AddFlow(d.Station(1), tcp.Config{DelayedAck: !delayed}) }) {
			t.Errorf("a dumbbell whose flows have delayed ACKs %v took a flow that disagrees", delayed)
		}
	}
}

// smallConfig is a two-station dumbbell on s.
func smallConfig(s *sim.Scheduler) Config {
	return Config{
		Sched:           s,
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(20),
		Stations:        2,
		RTTMin:          100 * units.Millisecond,
		RTTMax:          100 * units.Millisecond,
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// ackTap stands before the senders a station's reverse pipe delivers to
// and counts the ACKs the pipe delivers, those that waited there behind
// other ACKs, the phantoms — ACKs sent after their flow was unwired (at
// removed) — and phantoms whose sender was still wired.
type ackTap struct {
	sched                            *sim.Scheduler
	d                                *Dumbbell
	delay                            units.Duration
	rate                             units.BitRate
	removed                          map[packet.FlowID]units.Time
	acks, waited, phantoms, attached int
}

func (a *ackTap) Handle(p *packet.Packet) {
	a.acks++
	if p.Sent.Add(units.TransmissionTime(p.Size, a.rate)+a.delay) != a.sched.Now() {
		a.waited++
	}
	if at, ok := a.removed[p.Flow]; ok && p.Sent > at {
		a.phantoms++
		if e := a.d.slot(p.Flow); e.id == p.Flow && e.snd != nil {
			a.attached++
		}
	}
	(*senders)(a.d).Handle(p)
}

// TestPhantomAcksNeverQueue pins down why a hand-off stays exact when a
// flow is unwired while its segments are in flight. A segment admitted
// before the unwiring reaches its receiver at admission, not at its
// arrival after the unwiring, where the unwired flow's packet would have
// been dropped, so the receiver acks it: a phantom ACK that the dumbbell,
// the flow unwired by then, drops before the sender. The ACK still takes its turn on the station's
// reverse pipe, which is harmless only because that pipe never queues:
// two ACKs of one station are sent at least one bottleneck transmission
// of a segment apart, 250 ACK transmissions at 1000-byte segments and
// the default 10× access rate (25 at 100 bytes). Four long-lived flows
// fill the bottleneck's queue; after 2 s two are unwired mid-flight
// and new flows start on their stations. Every ACK every reverse pipe
// delivers took exactly its transmission and propagation time, phantoms
// included.
func TestPhantomAcksNeverQueue(t *testing.T) {
	const segment, stations = 1000, 4
	s := sim.NewScheduler()
	d := NewDumbbell(Config{
		Sched:           s,
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(60),
		Stations:        stations,
		RTTMin:          100 * units.Millisecond,
		RTTMax:          100 * units.Millisecond,
	})
	access := d.Config().AccessRate
	if gap, ack := units.TransmissionTime(segment, d.Config().BottleneckRate), units.TransmissionTime(40, access); gap < 250*ack {
		t.Fatalf("ACKs %v apart take %v each on the reverse pipe: fewer than 250 fit between two", gap, ack)
	}
	var taps []*ackTap
	removed := map[packet.FlowID]units.Time{}
	for i := 0; i < stations; i++ {
		st := d.Station(i)
		tap := &ackTap{sched: s, d: d, delay: units.Duration(st.RTT / 2), rate: access, removed: removed}
		st.reverse = link.NewPipe(fmt.Sprintf("reverse%d", i), s, access, tap.delay, tap)
		taps = append(taps, tap)
	}
	var flows []*Flow
	for i := 0; i < stations; i++ {
		flows = append(flows, d.AddFlow(d.Station(i), tcp.Config{SegmentSize: segment}))
		flows[i].Sender.Start()
	}
	s.Run(units.Epoch.Add(2 * units.Second))
	for _, f := range flows[:2] {
		d.RemoveFlow(f)
		removed[f.ID] = s.Now()
		d.AddFlow(f.Station, tcp.Config{SegmentSize: segment}).Sender.Start()
	}
	s.Run(units.Epoch.Add(4 * units.Second))
	acks, waited, phantoms, attached := 0, 0, 0, 0
	for _, tap := range taps {
		acks, waited = acks+tap.acks, waited+tap.waited
		phantoms, attached = phantoms+tap.phantoms, attached+tap.attached
	}
	t.Logf("%d ACKs, %d phantoms", acks, phantoms)
	if waited != 0 || acks == 0 || attached != 0 || phantoms == 0 {
		t.Errorf("%d of %d ACKs waited on a reverse pipe, %d were phantoms (%d reached an attached sender); want none to wait, some phantoms, none attached",
			waited, acks, phantoms, attached)
	}
}
