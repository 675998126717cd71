package experiment

import (
	"math"

	"bufsim/internal/metrics"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// AFCTComparisonConfig reproduces Fig. 9: average flow completion times of
// short flows competing with long-lived flows, under the rule-of-thumb
// buffer (RTT x C) versus the paper's buffer (RTT x C / sqrt(n)).
type AFCTComparisonConfig struct {
	Seed int64

	NLong           int
	ShortLoad       float64           // fraction of bottleneck offered by short flows
	Sizes           workload.SizeDist // short-flow length distribution
	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize
	MaxWindow       int // short flows' receiver cap

	// Variant, DelayedAck and Paced apply to every sender (long-lived and
	// short), as in LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches each regime's bottleneck to RED sized to that
	// regime's buffer.
	UseRED bool

	Warmup, Measure units.Duration

	// RunEnv: Audit, Cache (each regime's run is memoized) and Shards
	// reach both regimes; Metrics receives their telemetry merged under
	// the regime labels ("RTT*C", "RTT*C/sqrt(n)").
	RunEnv
}

// DigestRetired implements runcache's retired-field hook.
func (AFCTComparisonConfig) DigestRetired() map[string]any { return retiredMeanQueueEpoch }

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
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 50 * units.Mbps
	}
	if c.BottleneckDelay == 0 {
		c.BottleneckDelay = 10 * units.Millisecond
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 140 * units.Millisecond
	}
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.Warmup == 0 {
		c.Warmup = 20 * units.Second
	}
	if c.Measure == 0 {
		c.Measure = 40 * units.Second
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

// MixedConfig is one mixed-traffic run: long-lived flows plus Poisson
// short flows over a single drop-tail bottleneck of explicit buffer size.
// It is the single-buffer building block RunAFCTComparison pairs up, and
// the scenario the public API exposes as SimulateMix.
type MixedConfig struct {
	Seed int64

	NLong           int
	ShortLoad       float64
	Sizes           workload.SizeDist
	BottleneckRate  units.BitRate
	BottleneckDelay units.Duration
	RTTMin, RTTMax  units.Duration
	SegmentSize     units.ByteSize
	MaxWindow       int
	BufferPackets   int

	// Variant, DelayedAck and Paced apply to every sender, as in
	// LongLivedConfig.
	Variant    tcp.Variant
	DelayedAck bool
	Paced      bool
	// UseRED switches the bottleneck to RED sized to BufferPackets.
	UseRED bool

	Warmup, Measure units.Duration

	// RunEnv: Metrics, Audit, Cache and Shards. The cache entry is
	// shared with RunAFCTComparison points that lower to the same
	// scenario.
	RunEnv
}

// RunMixed executes one mixed-traffic scenario.
func RunMixed(cfg MixedConfig) AFCTOutcome {
	base := AFCTComparisonConfig{
		Seed:            cfg.Seed,
		NLong:           cfg.NLong,
		ShortLoad:       cfg.ShortLoad,
		Sizes:           cfg.Sizes,
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: cfg.BottleneckDelay,
		RTTMin:          cfg.RTTMin,
		RTTMax:          cfg.RTTMax,
		SegmentSize:     cfg.SegmentSize,
		MaxWindow:       cfg.MaxWindow,
		Variant:         cfg.Variant,
		DelayedAck:      cfg.DelayedAck,
		Paced:           cfg.Paced,
		UseRED:          cfg.UseRED,
		Warmup:          cfg.Warmup,
		Measure:         cfg.Measure,
		RunEnv:          cfg.RunEnv,
	}.withDefaults()
	buffer := cfg.BufferPackets
	if buffer < 1 {
		buffer = 1
	}
	return runMixedOnce(base, "mixed", buffer)
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

	Flows          []workload.FlowSpec
	BottleneckRate units.BitRate
	RTTMin, RTTMax units.Duration
	SegmentSize    units.ByteSize
	MaxWindow      int
	BufferPackets  int // 0 = unlimited
	Stations       int

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

func (c TraceConfig) withDefaults() TraceConfig {
	if c.SegmentSize == 0 {
		c.SegmentSize = units.DefaultSegment
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.RTTMin == 0 {
		c.RTTMin = 60 * units.Millisecond
	}
	if c.RTTMax == 0 {
		c.RTTMax = 140 * units.Millisecond
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
	// v2: Utilization of a trace whose flows all start at one instant
	// was reported as 0; entries from before the fix must not replay.
	return memoRun(cfg.RunEnv, "trace-v2", cfg, func() TraceResult {
		return runTrace(cfg)
	})
}

// runTrace is the uncached body of RunTrace; cfg has defaults applied.
// The window runs from the first arrival to Drain past the last.
func runTrace(cfg TraceConfig) TraceResult {
	b := newBed(bedConfig{
		env:      cfg.RunEnv,
		seed:     cfg.Seed,
		rate:     cfg.BottleneckRate,
		delay:    10 * units.Millisecond,
		rttMin:   cfg.RTTMin,
		rttMax:   cfg.RTTMax,
		stations: cfg.Stations,
		shards:   sharedGeneratorShards(cfg.Shards),
		buffer:   cfg.BufferPackets,
		segment:  cfg.SegmentSize,
		red:      cfg.UseRED,
	})
	records := workload.Replay(b.d, cfg.Flows, tcp.Config{
		SegmentSize: cfg.SegmentSize,
		MaxWindow:   cfg.MaxWindow,
		Variant:     cfg.Variant,
		DelayedAck:  cfg.DelayedAck,
		Paced:       cfg.Paced,
	})
	first, last := cfg.Flows[0].Start, cfg.Flows[len(cfg.Flows)-1].Start
	w := b.measure(first, last-first+cfg.Drain, nil)

	res := TraceResult{Utilization: w.Utilization}
	var sum units.Duration
	for _, r := range records {
		if r.Completed == units.Never {
			res.Censored++
			continue
		}
		res.Completed++
		sum += r.Duration()
	}
	if res.Completed > 0 {
		res.AFCT = sum / units.Duration(res.Completed)
	}
	return res
}

// mixedKey is the cache identity of one mixed-traffic run.
type mixedKey struct {
	Base   AFCTComparisonConfig
	Label  string
	Buffer int
}

// runMixedOnce runs one mixed-traffic scenario at one buffer size under
// cfg's RunEnv. cfg must already have defaults applied. With cfg.Cache
// set the outcome is memoized, keyed on (scenario, label, buffer) —
// RunMixed and RunAFCTComparison share entries when they lower to the
// same point.
func runMixedOnce(cfg AFCTComparisonConfig, label string, buffer int) AFCTOutcome {
	key := mixedKey{Base: cfg, Label: label, Buffer: buffer}
	return memoRun(cfg.RunEnv, "mixed", key, func() AFCTOutcome {
		return runMixedUncached(cfg, label, buffer)
	})
}

// runMixedUncached is the uncached body of runMixedOnce.
func runMixedUncached(cfg AFCTComparisonConfig, label string, buffer int) AFCTOutcome {
	b := newBed(bedConfig{
		env:      cfg.RunEnv,
		seed:     cfg.Seed,
		rate:     cfg.BottleneckRate,
		delay:    cfg.BottleneckDelay,
		rttMin:   cfg.RTTMin,
		rttMax:   cfg.RTTMax,
		stations: cfg.NLong + 50,
		shards:   sharedGeneratorShards(cfg.Shards),
		buffer:   buffer,
		segment:  cfg.SegmentSize,
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
	gen := workload.NewShortFlows(workload.ShortFlowConfig{
		Dumbbell: b.d,
		RNG:      b.rng.Fork(),
		Load:     cfg.ShortLoad,
		Sizes:    cfg.Sizes,
		TCP:      short,
	})
	gen.Start()

	w := b.measure(cfg.Warmup, cfg.Measure, nil)
	gen.Stop()
	b.drain(60 * units.Second)
	afct, completed, censored := gen.AFCT(w.from, w.to)
	return AFCTOutcome{
		Label: label, BufferPackets: buffer, AFCT: afct,
		Completed: completed, Censored: censored,
		Utilization: w.Utilization, MeanQueue: w.MeanQueue,
	}
}

// RunAFCTComparison executes the Fig. 9 experiment.
func RunAFCTComparison(cfg AFCTComparisonConfig) AFCTComparisonResult {
	cfg = cfg.withDefaults()
	meanRTT := (cfg.RTTMin + cfg.RTTMax) / 2
	bdp := units.PacketsInFlight(cfg.BottleneckRate, meanRTT, cfg.SegmentSize)
	small := SqrtRuleBuffer(float64(bdp), cfg.NLong)

	// Each regime runs under the config's env with its own registry.
	thumb, sqrt := cfg, cfg
	if cfg.Metrics != nil {
		thumb.Metrics, sqrt.Metrics = metrics.New(), metrics.New()
	}
	res := AFCTComparisonResult{
		BDPPackets: bdp,
		RuleThumb:  runMixedOnce(thumb, "RTT*C", int(math.Max(1, float64(bdp)))),
		SqrtRule:   runMixedOnce(sqrt, "RTT*C/sqrt(n)", small),
	}
	if cfg.Metrics != nil {
		cfg.Metrics.Merge(res.RuleThumb.Label, thumb.Metrics)
		cfg.Metrics.Merge(res.SqrtRule.Label, sqrt.Metrics)
	}
	return res
}
