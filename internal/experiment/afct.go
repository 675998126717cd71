package experiment

import (
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// AFCTComparisonConfig reproduces Fig. 9: average flow completion times of
// short flows competing with long-lived flows, under the rule-of-thumb
// buffer (RTT x C) versus the paper's buffer (RTT x C / sqrt(n)).
type AFCTComparisonConfig struct {
	Seed int64

	NLong     int
	ShortLoad float64           // fraction of bottleneck offered by short flows
	Sizes     workload.SizeDist // short-flow length distribution
	// Path defaults to afctPath.
	Path
	MaxWindow int // short flows' receiver cap

	// Variant, DelayedAck and Paced apply to every sender (long-lived and
	// short), as in LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches each regime's bottleneck to RED sized to that
	// regime's buffer.
	UseRED bool

	// RunEnv: Audit, Cache (each regime's run is memoized) and Shards
	// reach both regimes, a sweep of two; Metrics receives their
	// telemetry merged under the regime labels ("RTT*C", "RTT*C/sqrt(n)").
	RunEnv
}

// afctPath is Fig. 9's bed: 50 Mb/s, the wide RTT range.
var afctPath = Path{
	BottleneckRate:  50 * units.Mbps,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         40 * units.Second,
}

func (c AFCTComparisonConfig) withDefaults() AFCTComparisonConfig {
	if c.NLong == 0 {
		c.NLong = 100
	}
	if c.ShortLoad == 0 {
		c.ShortLoad = 0.2
	}
	if c.Sizes == nil {
		c.Sizes = workload.GeometricSize(14)
	}
	c.Path = c.Path.or(afctPath)
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	return c
}

// AFCTOutcome is the result for one buffer sizing.
type AFCTOutcome struct {
	Label         string
	BufferPackets int
	AFCT          units.Duration
	Completed     int
	Censored      int
	Utilization   float64
	MeanQueue     float64 // packets
}

// MixedConfig is one mixed-traffic run: the Fig. 9 scenario — long-lived
// flows plus Poisson short flows over a single bottleneck — at one
// explicit buffer size. It is the single-buffer building block
// RunAFCTComparison pairs up, and the scenario the public API exposes as
// the Mix traffic kind.
type MixedConfig struct {
	// AFCTComparisonConfig is the scenario, RunEnv included: Metrics,
	// Audit, Cache and Shards. UseRED sizes RED to BufferPackets.
	AFCTComparisonConfig
	BufferPackets int
}

// RunMixed executes one mixed-traffic scenario.
func RunMixed(cfg MixedConfig) AFCTOutcome {
	cfg.AFCTComparisonConfig = cfg.AFCTComparisonConfig.withDefaults()
	cfg.BufferPackets = max(1, cfg.BufferPackets)
	return runMixedOnce(cfg, "mixed")
}

// AFCTComparisonResult pairs the two buffer regimes.
type AFCTComparisonResult struct {
	BDPPackets int
	RuleThumb  AFCTOutcome // B = RTT x C
	SqrtRule   AFCTOutcome // B = RTT x C / sqrt(n)
}

// TraceConfig replays a recorded flow trace (arrival time + size per
// flow) through a dumbbell — the bridge from synthetic workloads to real
// flow-level data.
type TraceConfig struct {
	Seed int64

	Flows []workload.FlowSpec
	// Path: BottleneckRate is the caller's, the rest defaults to
	// tracePath. Warmup and Measure are not read — the window is the
	// trace's own, first arrival to Drain past the last.
	Path
	MaxWindow     int
	BufferPackets int // 0 = unlimited
	Stations      int

	// Variant, DelayedAck and Paced apply to every replayed sender, as in
	// LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to RED sized to BufferPackets
	// (which must then be positive).
	UseRED bool

	// Drain bounds how long after the last arrival the simulation keeps
	// running for stragglers (default 60 s).
	Drain units.Duration

	// RunEnv: Metrics, Audit, Cache and Shards.
	RunEnv
}

// tracePath is the short-flow bed without a window (see TraceConfig).
var tracePath = Path{
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
}

func (c TraceConfig) withDefaults() TraceConfig {
	c.Path = c.Path.or(tracePath)
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.Drain == 0 {
		c.Drain = 60 * units.Second
	}
	return c
}

// TraceResult summarizes a replayed trace.
type TraceResult struct {
	Completed   int
	Censored    int
	AFCT        units.Duration
	Utilization float64 // over [first arrival, last arrival + Drain]
}

// RunTrace replays the trace and reports completion statistics. With
// cfg.Cache set the result is memoized.
func RunTrace(cfg TraceConfig) TraceResult {
	if len(cfg.Flows) == 0 {
		return TraceResult{}
	}
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "trace", cfg, func() TraceResult {
		return runTrace(cfg)
	})
}

// runTrace is the uncached body of RunTrace; cfg has defaults applied.
// The window runs from the first arrival to Drain past the last.
func runTrace(cfg TraceConfig) TraceResult {
	path := cfg.Path
	first, last := cfg.Flows[0].Start, cfg.Flows[len(cfg.Flows)-1].Start
	path.Warmup, path.Measure = first, last-first+cfg.Drain
	b := newBed(bedConfig{
		env:      cfg.RunEnv,
		seed:     cfg.Seed,
		Path:     path,
		stations: cfg.Stations,
		shards:   sharedGeneratorShards(cfg.Shards),
		buffer:   cfg.BufferPackets,
		red:      cfg.UseRED,
	})
	drv := b.start(workload.TraceSource{Flows: cfg.Flows, TCP: tcp.Config{
		SegmentSize: cfg.SegmentSize,
		MaxWindow:   cfg.MaxWindow,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
	}})
	w := b.measure(nil)

	// Every flow of the trace counts, whenever it started.
	res := TraceResult{Utilization: w.Utilization}
	res.AFCT, res.Completed, res.Censored = workload.RecordAFCT(drv.Records(), units.Epoch, units.Never)
	return res
}

// mixedKey is the cache identity of one mixed-traffic run: the scenario
// at its buffer, and the label its outcome carries.
type mixedKey struct {
	Base  MixedConfig
	Label string
}

// runMixedOnce runs one mixed-traffic scenario under cfg's RunEnv. cfg
// must already have defaults applied. With cfg.Cache set the outcome is
// memoized.
func runMixedOnce(cfg MixedConfig, label string) AFCTOutcome {
	return memoRun(cfg.RunEnv, "mixed", mixedKey{cfg, label}, func() AFCTOutcome {
		return runMixedUncached(cfg, label)
	})
}

// runMixedUncached is the uncached body of runMixedOnce.
func runMixedUncached(cfg MixedConfig, label string) AFCTOutcome {
	b := newBed(bedConfig{
		env:      cfg.RunEnv,
		seed:     cfg.Seed,
		Path:     cfg.Path,
		stations: cfg.NLong + 50,
		shards:   sharedGeneratorShards(cfg.Shards),
		buffer:   cfg.BufferPackets,
		red:      cfg.UseRED,
	})
	long := tcp.Config{
		SegmentSize: cfg.SegmentSize,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
	}
	workload.StartLongLived(b.d, cfg.NLong, long, b.rng.Fork(), cfg.Warmup/2)
	short := long
	short.MaxWindow = cfg.MaxWindow
	gen := b.start(workload.PoissonSource{Load: cfg.ShortLoad, Sizes: cfg.Sizes, TCP: short})

	w := b.measure(nil)
	gen.Stop()
	b.drain(60 * units.Second)
	afct, completed, censored := workload.RecordAFCT(gen.Records(), w.from, w.to)
	return AFCTOutcome{
		Label: label, BufferPackets: cfg.BufferPackets, AFCT: afct,
		Completed: completed, Censored: censored,
		Utilization: w.Utilization, MeanQueue: w.MeanQueue,
	}
}

// RunAFCTComparison executes the Fig. 9 experiment.
func RunAFCTComparison(cfg AFCTComparisonConfig) AFCTComparisonResult {
	cfg = cfg.withDefaults()
	bdp := cfg.BDP()

	// The two regimes, each a cell with its own registry.
	labels := []string{"RTT*C", "RTT*C/sqrt(n)"}
	buffers := []int{max(1, bdp), cfg.SqrtRule(cfg.NLong)}
	label := func(i int) string { return labels[i] }
	out := sweepLabelled("afct-comparison", cfg, cfg.RunEnv, label, len(labels), func(i int, cell RunEnv) AFCTOutcome {
		run := MixedConfig{AFCTComparisonConfig: cfg, BufferPackets: buffers[i]}
		run.RunEnv = cell
		run.Shards = cfg.Shards
		return runMixedOnce(run, labels[i])
	})
	return AFCTComparisonResult{BDPPackets: bdp, RuleThumb: out[0], SqrtRule: out[1]}
}
