package topology

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/link"
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
	if occ := d.DropTail.MeanOccupancy(s.Now()); occ < 30 {
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
	mean := d.MeanRTT()
	if mean < 120*units.Millisecond || mean > 210*units.Millisecond {
		t.Errorf("MeanRTT = %v, want ~162ms", mean)
	}
}

func TestBDPPackets(t *testing.T) {
	s, d := buildSingle(100)
	_ = s
	// 10 Mb/s x 100 ms / 8 / 1000 B = 125 packets.
	if got := d.BDPPackets(1000); got != 125 {
		t.Errorf("BDPPackets = %d, want 125", got)
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
	if d.DropTail != nil {
		t.Error("DropTail should be nil with a custom queue")
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

// TestOnePoolPerView: flows on the same scheduler view share a packet
// pool and flows on different views never do, so a pool is only ever
// touched by the goroutine running its view; under audit the pools
// poison instead of recycling; and a link gets a drop pool only where it
// runs on the pool's view.
func TestOnePoolPerView(t *testing.T) {
	build := func(shards int, aud *audit.Auditor) *Dumbbell {
		return NewDumbbell(Config{
			Sched:           sim.NewScheduler(),
			BottleneckRate:  10 * units.Mbps,
			BottleneckDelay: 10 * units.Millisecond,
			Buffer:          queue.PacketLimit(50),
			Stations:        6,
			RTTMin:          100 * units.Millisecond,
			RTTMax:          100 * units.Millisecond,
			Shards:          shards,
			Auditor:         aud,
		})
	}
	for _, shards := range []int{1, 3} {
		d := build(shards, nil)
		for i := 0; i < d.NumStations(); i++ {
			d.AddFlow(d.Station(i), tcp.Config{})
		}
		views := map[*sim.Scheduler]bool{}
		for i := 0; i < d.NumStations(); i++ {
			views[d.Station(i).Sched()] = true
		}
		if len(d.pools) != len(views) {
			t.Errorf("shards=%d: %d pools for %d station views", shards, len(d.pools), len(views))
		}
		for view, pool := range d.pools {
			if !views[view] {
				t.Errorf("shards=%d: a pool belongs to a view no station runs on", shards)
			}
			p := pool.Get()
			pool.Put(p)
			if p.Released() || pool.Get() != p {
				t.Errorf("shards=%d: pool does not recycle", shards)
			}
		}
	}
	d := build(1, audit.New())
	pool := d.poolFor(d.Station(0).Sched())
	p := pool.Get()
	pool.Put(p)
	if !p.Released() {
		t.Error("audited dumbbell's pool does not poison released packets")
	}

	// A link that drops releases into a pool exactly where it runs on the
	// view whose endpoints draw from that pool: an unsharded dumbbell's
	// bottleneck, a fabric plane's, the parking lot's core links — and not
	// a sharded dumbbell's bottleneck, which runs on shard 0 while the
	// pools belong to the station shards.
	overflow := func(l *link.Link, pool *packet.Pool, limit int) int64 {
		for i := 0; i < limit+2; i++ { // one transmitting, limit queued, one rejected
			p := pool.Get()
			p.Size = 1000
			l.Send(p)
		}
		return l.Queue().Stats().DroppedPackets
	}
	for _, shards := range []int{1, 2} {
		d := build(shards, nil)
		drops := overflow(d.Bottleneck, d.poolFor(d.Station(0).Sched()), 50)
		if got, want := d.PoolStats().DropReleases, int64(2-shards); drops != 1 || got != want {
			t.Errorf("shards=%d: %d drops, %d released to a pool, want 1 and %d", shards, drops, got, want)
		}
	}
	fab := NewFabric(FabricConfig{Sched: sim.NewScheduler(), Planes: 2, Plane: fabricPlaneTemplate, RNG: sim.NewRNG(1)})
	for k := 0; k < fab.Planes(); k++ {
		d := fab.Plane(k)
		drops := overflow(d.Bottleneck, d.poolFor(d.Station(0).Sched()), 60)
		if got := d.PoolStats().DropReleases; drops != 1 || got != 1 {
			t.Errorf("fabric plane %d: %d drops, %d released to its pool, want 1 and 1", k, drops, got)
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
