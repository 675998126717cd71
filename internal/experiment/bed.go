package experiment

import (
	"fmt"
	"time"

	"bufsim/internal/link"
	"bufsim/internal/metrics"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// The test bed. Every scenario in this package is one apparatus with
// different traffic: a topology on a fresh scheduler, warmed up, measured
// over one window, drained. bed (the Fig. 1 dumbbell) and lot (the
// parking-lot chain) are the only places it is assembled — `make onebed`
// fails the build on a scheduler or topology constructed anywhere else
// in the package — so a scenario body reads "describe the bed, start the
// traffic, read the window". See DESIGN.md, "Test bed".

// bedConfig describes the dumbbell one scenario runs on: the config's
// Path, and what the body adds to it.
type bedConfig struct {
	env  RunEnv // Metrics and Audit observe the run
	seed int64

	// Path is the scenario's, defaults applied. Station RTTs are drawn
	// off the seed's first fork; a fixed RTT (RTTMax 0) forks nothing, so
	// the first fork goes to RED or the traffic — the single-flow and
	// adversarial scenarios' order. SegmentSize is RED's mean packet.
	Path
	stations   int
	accessRate units.BitRate // 0: the topology's 10x bottleneck
	// shards is the kernel shard request: env.Shards where a scenario
	// shards fully, sharedGeneratorShards(env.Shards) where a generator
	// drives it, 0 where it never shards.
	shards int

	buffer int // bottleneck buffer in packets; 0 is unlimited
	// red, ecn and codel pick the discipline as in LongLivedConfig;
	// drop-tail when all are false.
	red, ecn, codel bool
}

// bed is one built dumbbell plus what is left of its seed.
type bed struct {
	rig
	// rng has had the bed's streams forked off it — station RTTs first,
	// RED's drop stream second (under red only) — and the body forks its
	// traffic streams after, in its own order. That order is what keeps a
	// scenario's results fixed.
	rng *sim.RNG
	d   *topology.Dumbbell
}

func newBed(c bedConfig) *bed {
	b := &bed{rig: newRig(c.env, c.Path), rng: sim.NewRNG(c.seed)}
	tc := topology.Config{
		Sched:           b.sched,
		BottleneckRate:  c.BottleneckRate,
		BottleneckDelay: c.BottleneckDelay,
		Buffer:          queue.PacketLimit(c.buffer),
		AccessRate:      c.accessRate,
		Stations:        c.stations,
		RTTMin:          c.RTTMin,
		RTTMax:          c.RTTMin,
		Auditor:         c.env.Audit,
		Shards:          c.shards,
	}
	if c.RTTMax != 0 {
		tc.RTTMax, tc.RNG = c.RTTMax, b.rng.Fork()
	}
	if c.ecn && !c.red {
		panic("experiment: ECN requires UseRED (a marking-capable queue)")
	}
	if c.codel && c.red {
		panic("experiment: UseCoDel and UseRED are mutually exclusive")
	}
	if c.codel {
		tc.NewQueue = func() queue.Queue {
			return queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(c.buffer)})
		}
	}
	if c.red {
		tc.NewQueue = redQueueHook(c.buffer, c.SegmentSize, c.BottleneckRate, b.rng.Fork(), c.ecn)
	}
	b.d = topology.NewDumbbell(tc)
	instrumentDumbbell(c.env.Metrics, b.sched, b.d)
	b.taps = []tap{{l: b.d.Bottleneck, dt: b.d.DropTail}}
	return b
}

// redQueueHook returns a topology.Config.NewQueue constructor building a
// RED bottleneck with conventional thresholds scaled to bufferPkts (and
// optional ECN marking), drawing its drop randomness from redRNG.
func redQueueHook(bufferPkts int, segment units.ByteSize, rate units.BitRate, redRNG *sim.RNG, ecn bool) func() queue.Queue {
	if bufferPkts <= 0 {
		panic("experiment: UseRED requires BufferPackets > 0 (RED thresholds scale with the physical buffer)")
	}
	meanPkt := units.TransmissionTime(segment, rate)
	return func() queue.Queue {
		redCfg := queue.DefaultRED(bufferPkts, meanPkt, redRNG.Float64)
		redCfg.MarkECN = ecn
		return queue.NewRED(redCfg)
	}
}

// instrumentDumbbell wires a fresh dumbbell's telemetry: scheduler
// counters, the bottleneck queue and link, and TCP aggregates over every
// flow added from here on. It only observes — no event is scheduled and
// no RNG consumed — so the packet trace is identical with reg nil or set.
func instrumentDumbbell(reg *metrics.Registry, sched *sim.Scheduler, d *topology.Dumbbell) {
	if reg == nil {
		return
	}
	sched.Instrument(reg)
	queue.Instrument(reg, "bottleneck", d.Bottleneck.Queue())
	d.Bottleneck.Instrument(reg, "bottleneck")
	tel := tcp.NewTelemetry(reg)
	d.OnAddFlow = func(f *topology.Flow) { tel.Track(f.Sender) }
	instrumentPools(reg, d.PoolStats)
}

// instrumentPools publishes a topology's packet-pool counts at snapshot
// time: packets allocated (packet.pool_news), packets recycled
// (packet.pool_reuses) and dropped packets returned by the link that
// dropped them (packet.pool_drop_releases).
func instrumentPools(reg *metrics.Registry, stats func() packet.PoolStats) {
	if reg == nil {
		return
	}
	news := reg.Counter("packet.pool_news")
	reuses := reg.Counter("packet.pool_reuses")
	drops := reg.Counter("packet.pool_drop_releases")
	reg.OnCollect(func() {
		st := stats()
		news.Set(st.News)
		reuses.Set(st.Reuses)
		drops.Set(st.DropReleases)
	})
}

// start binds src onto the dumbbell with the next fork of the bed's seed
// and starts it: the one way a scenario body turns a traffic description
// into traffic.
func (b *bed) start(src workload.Source) workload.Driver {
	drv := src.Bind(b.d, b.rng.Fork())
	drv.Start()
	return drv
}

// measure is rig.measure for the one bottleneck.
func (b *bed) measure(atWarmEnd func()) window { return b.rig.measure(atWarmEnd)[0] }

// lot is the parking-lot bed: hops identical drop-tail core links in a
// chain, each at the path's bottleneck rate and delay, measured link by
// link.
type lot struct {
	rig
	p *topology.ParkingLot
}

func newLot(env RunEnv, hops int, path Path, buffer int) *lot {
	b := &lot{rig: newRig(env, path)}
	rates := make([]units.BitRate, hops)
	delays := make([]units.Duration, hops)
	buffers := make([]queue.Limit, hops)
	for i := range rates {
		rates[i], delays[i], buffers[i] = path.BottleneckRate, path.BottleneckDelay, queue.PacketLimit(buffer)
	}
	b.p = topology.NewParkingLot(topology.ParkingLotConfig{
		Sched: b.sched, Rates: rates, Delays: delays, Buffers: buffers, Auditor: env.Audit,
	})
	b.sched.Instrument(env.Metrics)
	instrumentPools(env.Metrics, b.p.PoolStats)
	for i, l := range b.p.Links {
		name := fmt.Sprintf("core%d", i)
		queue.Instrument(env.Metrics, name, l.Queue())
		l.Instrument(env.Metrics, name)
		b.taps = append(b.taps, tap{l: l, dt: b.p.DropTails[i]})
	}
	return b
}

// rig is what the two beds share: the scheduler, one tap per measured
// link, the path's warm-up and window, and the run's wall clock.
type rig struct {
	sched *sim.Scheduler
	taps  []tap
	// warmup and window are the path's Warmup and Measure.
	warmup, window units.Duration
	// publishWall reports the wall time since the rig was built to the
	// run's registry; measure and drain call it, so the last one to run
	// the scheduler leaves the run's total. The start time never leaves
	// the closure: wall time may reach telemetry and nothing else.
	publishWall func()
}

func newRig(env RunEnv, path Path) rig {
	sched, start := sim.NewScheduler(), time.Now()
	return rig{sched: sched, warmup: path.Warmup, window: path.Measure, publishWall: func() {
		if env.Metrics == nil {
			return
		}
		wall := time.Since(start).Seconds()
		env.Metrics.Gauge("sim.wall_seconds").Set(wall)
		if s := sched.Now().Seconds(); s > 0 {
			env.Metrics.Gauge("sim.wall_seconds_per_sim_second").Set(wall / s)
		}
	}}
}

// tap is one measured link and its counters where the window opened.
type tap struct {
	l    *link.Link
	dt   *queue.DropTail // nil unless the link's queue is drop-tail
	busy units.Duration
	qs   queue.Stats
}

// window is what one link did over [from, to] — the one definition of
// utilization, loss and queue occupancy every scenario reports.
type window struct {
	from, to    units.Time
	Utilization float64 // busy fraction of the window
	// dropped and offered count the queue's drops and arrivals in the
	// window; LossRate is their ratio.
	dropped, offered int64
	LossRate         float64
	// MeanQueue is the time-averaged occupancy over the window and
	// PeakQueue its maximum, in packets; 0 unless the queue is drop-tail.
	MeanQueue float64
	PeakQueue int
}

// lossRate is dropped/offered, 0 when nothing was offered.
func lossRate(dropped, offered int64) float64 {
	if offered <= 0 {
		return 0
	}
	return float64(dropped) / float64(offered)
}

// measure runs to the end of the warm-up and opens the window there:
// busy time and queue counters are snapshotted and every drop-tail
// occupancy epoch reset, so MeanQueue and PeakQueue cover the window
// only. Then atWarmEnd (nil for none) lets the body snapshot its own
// counters or start a window-only sampler, the window runs, each tap is
// read and the wall-clock cost so far is published.
func (r *rig) measure(atWarmEnd func()) []window {
	from := units.Epoch.Add(r.warmup)
	r.sched.Run(from)
	for i := range r.taps {
		t := &r.taps[i]
		t.busy, t.qs = t.l.BusyTime(), t.l.Queue().Stats()
		if t.dt != nil {
			t.dt.ResetOccupancy(from)
		}
	}
	if atWarmEnd != nil {
		atWarmEnd()
	}
	to := from.Add(r.window)
	r.sched.Run(to)

	ws := make([]window, len(r.taps))
	for i, t := range r.taps {
		qs := t.l.Queue().Stats()
		w := window{from: from, to: to, Utilization: t.l.Utilization(t.busy, from)}
		w.dropped = qs.DroppedPackets - t.qs.DroppedPackets
		w.offered = qs.EnqueuedPackets - t.qs.EnqueuedPackets + w.dropped
		w.LossRate = lossRate(w.dropped, w.offered)
		if t.dt != nil {
			w.MeanQueue, w.PeakQueue = t.dt.MeanOccupancy(to), t.dt.MaxOccupancy()
		}
		ws[i] = w
	}
	r.publishWall()
	return ws
}

// drain runs on past the window so stragglers can finish.
func (r *rig) drain(d units.Duration) {
	r.sched.Run(r.sched.Now().Add(d))
	r.publishWall()
}

// sample polls probe every period from now on and returns the growing
// series: call it before measure for a whole-run series, from atWarmEnd
// for one that starts with the window.
func (r *rig) sample(name string, every units.Duration, probe func() float64) *trace.Series {
	return trace.NewSampler(r.sched, name, every, probe).Series()
}

// of cuts a sampled series down to the window.
func (w window) of(s *trace.Series) *trace.Series {
	return s.Window(w.from.Sub(units.Epoch).Seconds(), w.to.Sub(units.Epoch).Seconds())
}
