package experiment

import (
	"fmt"

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
// Scenario, and what the body adds to it.
type bedConfig struct {
	env RunEnv // Metrics and Audit observe the run

	// Scenario is the config's, defaults applied. Station RTTs are drawn
	// off the seed's first fork; a fixed RTT (RTTMax 0) forks nothing, so
	// the first fork goes to RED or the traffic — the single-flow and
	// adversarial scenarios' order. SegmentSize is RED's mean packet.
	Scenario
	stations   int
	accessRate units.BitRate // 0: the topology's 10x bottleneck

	buffer int // bottleneck buffer in packets; 0 is unlimited
}

// bed is one built dumbbell plus what is left of its seed.
type bed struct {
	rig
	// rng has had the bed's streams forked off it — station RTTs first,
	// RED's drop stream second (under RED only) — and the body forks its
	// traffic streams after, in its own order. That order is what keeps a
	// scenario's results fixed.
	rng *sim.RNG
	d   *topology.Dumbbell
	// spec is the scenario's sender template, which every source bound
	// here runs (see Scenario.tcp).
	spec tcp.Config
}

func newBed(c bedConfig) *bed {
	b := &bed{rig: newRig(c.env, c.Path), rng: sim.NewRNG(c.Seed), spec: c.tcp(0)}
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
	}
	if c.RTTMax != 0 {
		tc.RTTMax, tc.RNG = c.RTTMax, b.rng.Fork()
	}
	switch c.Queue {
	case RED, REDECN:
		tc.NewQueue = redQueueHook(c.buffer, c.SegmentSize, c.BottleneckRate, b.rng.Fork(), c.Queue == REDECN)
	case CoDel:
		tc.NewQueue = func() queue.Queue {
			return queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(c.buffer)})
		}
	}
	b.d = topology.NewDumbbell(tc)
	instrumentDumbbell(c.env.Metrics, b.sched, b.d)
	b.taps = []tap{{l: b.d.Bottleneck}}
	return b
}

// redQueueHook returns a topology.Config.NewQueue constructor building a
// RED bottleneck with conventional thresholds scaled to bufferPkts (and
// optional ECN marking), drawing its drop randomness from redRNG.
func redQueueHook(bufferPkts int, segment units.ByteSize, rate units.BitRate, redRNG *sim.RNG, ecn bool) func() queue.Queue {
	if bufferPkts <= 0 {
		panic("experiment: RED requires BufferPackets > 0 (RED thresholds scale with the physical buffer)")
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
// and the scenario's sender, and starts it on the bed's measurement
// window, whose flows the driver counts: the one way a scenario body
// turns a traffic description into traffic.
func (b *bed) start(src workload.Source) workload.Driver {
	drv := src.Bind(b.d, b.rng.Fork(), b.spec)
	drv.Start(b.bounds())
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
		l.Instrument(env.Metrics, name)
		b.taps = append(b.taps, tap{l: l})
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
	// metrics is the run's registry (nil: telemetry off), and wall runs
	// from when the rig was built; publishWall reports the one to the
	// other.
	metrics *metrics.Registry
	wall    stopwatch
}

func newRig(env RunEnv, path Path) rig {
	return rig{sched: sim.NewScheduler(), warmup: path.Warmup, window: path.Measure, metrics: env.Metrics, wall: startStopwatch()}
}

// publishWall reports the wall time since the rig was built to the
// run's registry; measure and drain call it, so the last one to run the
// scheduler leaves the run's total.
func (r *rig) publishWall() {
	if r.metrics == nil {
		return
	}
	wall := r.wall.elapsed().Seconds()
	r.metrics.Gauge("sim.wall_seconds").Set(wall)
	if s := r.sched.Now().Seconds(); s > 0 {
		r.metrics.Gauge("sim.wall_seconds_per_sim_second").Set(wall / s)
	}
}

// tap is one measured link and its counters where the window opened.
type tap struct {
	l    *link.Link
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
	// PeakQueue its maximum, in packets.
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

// bounds is the measurement window, both ends inclusive: Measure long,
// after Warmup.
func (r *rig) bounds() (from, to units.Time) {
	from = units.Epoch.Add(r.warmup)
	return from, from.Add(r.window)
}

// measure runs to the end of the warm-up and opens the window there:
// busy time and queue counters are snapshotted and every link's
// occupancy measurement restarted, so MeanQueue and PeakQueue cover the
// window only. Then atWarmEnd (nil for none) lets the body snapshot its own
// counters or start a window-only sampler, the window runs, each tap is
// read and the wall-clock cost so far is published.
func (r *rig) measure(atWarmEnd func()) []window {
	from, to := r.bounds()
	r.sched.Run(from)
	for i := range r.taps {
		t := &r.taps[i]
		t.busy, t.qs = t.l.BusyTime(), t.l.Queue().Stats()
		t.l.RestartOccupancy()
	}
	if atWarmEnd != nil {
		atWarmEnd()
	}
	r.sched.Run(to)

	ws := make([]window, len(r.taps))
	for i, t := range r.taps {
		qs := t.l.Queue().Stats()
		w := window{from: from, to: to, Utilization: t.l.Utilization(t.busy, from)}
		w.dropped = qs.DroppedPackets - t.qs.DroppedPackets
		w.offered = qs.EnqueuedPackets - t.qs.EnqueuedPackets + w.dropped
		w.LossRate = lossRate(w.dropped, w.offered)
		w.MeanQueue, w.PeakQueue = t.l.Occupancy()
		ws[i] = w
	}
	r.publishWall()
	return ws
}

// drainSlice is the simulated time drain runs between looks at the
// window's flows: short beside a drain's bound, so little runs past the
// last completion, and long beside the gap between events, so the looks
// cost nothing.
const drainSlice = 10 * units.Millisecond

// drain runs the clock on past the window until no flow drv launched in
// it is open, and for at most d: a run left with a censored flow runs all
// of d; flows launched after the window never hold it. The clock moves
// in drainSlice steps and drain posts no event, so what it runs is a
// prefix of a full drain's and every windowed completion time is the
// same.
func (r *rig) drain(d units.Duration, drv workload.Driver) {
	end := r.sched.Now().Add(d)
	for now := r.sched.Now(); now < end; {
		if _, _, open := drv.Window(); open == 0 {
			break
		}
		now = min(now.Add(drainSlice), end)
		r.sched.Run(now)
	}
	r.publishWall()
}

// sample polls probe every period from now on and returns the growing
// series: call it before measure for a whole-run series, from atWarmEnd
// for one that starts with the window.
func (r *rig) sample(name string, every units.Duration, probe func() float64) *trace.Series {
	return trace.NewSampler(r.sched, name, every, probe).Series()
}

// tally samples a probe every period, as rig.sample does, but keeps of
// the samples only the sum, count and maximum of those window.of would
// keep — both ends of the measurement window included — added in time
// order, so its mean and max are stats.Mean and Series.Max of the
// window's series, bit for bit, and a run of any length holds three
// numbers.
type tally struct {
	sched    *sim.Scheduler
	every    units.Duration
	probe    func() float64
	from, to float64 // the window in seconds, as window.of compares
	sum, max float64
	n        int
}

// tally starts a tally of probe every period from now on over the
// measurement window.
func (r *rig) tally(every units.Duration, probe func() float64) *tally {
	from, to := r.bounds()
	t := &tally{sched: r.sched, every: every, probe: probe, from: from.Seconds(), to: to.Seconds()}
	r.sched.PostAfter(every, t, 0, nil)
	return t
}

// OnEvent implements sim.Actor: each tick takes a sample in the window
// and re-arms.
func (t *tally) OnEvent(int32, any) {
	if now := t.sched.Now().Seconds(); now >= t.from && now <= t.to {
		v := t.probe()
		if t.n == 0 || v > t.max {
			t.max = v
		}
		t.sum += v
		t.n++
	}
	t.sched.PostAfter(t.every, t, 0, nil)
}

// mean is the mean of the window's samples, 0 for none.
func (t *tally) mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// of cuts a sampled series down to the window.
func (w window) of(s *trace.Series) *trace.Series {
	return s.Window(w.from.Sub(units.Epoch).Seconds(), w.to.Sub(units.Epoch).Seconds())
}
