package experiment

import (
	"math"

	"bufsim/internal/stats"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// WindowDistConfig reproduces Fig. 6: the distribution of the sum of the
// congestion windows of all flows, compared with a normal fit.
type WindowDistConfig struct {
	// Scenario: the path defaults to windowDistPath.
	Scenario

	N int

	// BufferFactor sizes the buffer as a multiple of RTTxC/sqrt(n).
	BufferFactor float64

	SampleEvery units.Duration

	// RunEnv: Metrics, Audit and Cache (the memoized result includes
	// samples and histogram).
	RunEnv
}

// windowDistPath is Fig. 6's bed: OC3, RTTs spread wide enough to
// desynchronize, and a minute of samples.
var windowDistPath = Path{
	BottleneckRate:  units.OC3,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         60 * units.Second,
}

func (c WindowDistConfig) withDefaults() WindowDistConfig {
	c.Path = c.Path.or(windowDistPath)
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 10 * units.Millisecond
	}
	return c
}

// WindowDistResult summarizes the aggregate-window process.
type WindowDistResult struct {
	N             int
	BufferPackets int

	Samples []float64 // aggregate window, sampled
	Mean    float64
	StdDev  float64
	// KS is the Kolmogorov–Smirnov distance between the sample and the
	// fitted normal; small KS is the Fig. 6 claim.
	KS float64
	// CLTSigmaRatio compares the measured sigma against 1/sqrt(n)
	// scaling: sigma * sqrt(n) / mean. Roughly constant across n if the
	// central-limit scaling holds.
	CLTSigmaRatio float64
	// Histogram over the sampled range, for plotting.
	Histogram *stats.Histogram
}

// RunWindowDist executes the Fig. 6 scenario. With cfg.Cache set the
// result is memoized.
func RunWindowDist(cfg WindowDistConfig) WindowDistResult {
	cfg = cfg.withDefaults()
	return memoRun(cfg.RunEnv, "window-dist", cfg, func() WindowDistResult {
		return runWindowDist(cfg)
	})
}

// runWindowDist is the uncached body of RunWindowDist; cfg has defaults
// applied.
func runWindowDist(cfg WindowDistConfig) WindowDistResult {
	// Scaled and truncated, never rounded: the pinned digest's own
	// arithmetic (see Path.sqrtRuleTimes).
	buffer := int(math.Max(1, cfg.BufferFactor*float64(cfg.BDP())/math.Sqrt(float64(cfg.N))))

	b := newBed(bedConfig{env: cfg.RunEnv, Scenario: cfg.Scenario, stations: cfg.N, buffer: buffer})
	workload.StartLongLived(b.d, cfg.N, b.spec, b.rng.Fork(), cfg.Warmup/2)

	var aggregate *trace.Series
	b.measure(func() {
		aggregate = b.sample("aggregate_window", cfg.SampleEvery, b.d.AggregateWindow)
	})
	samples := aggregate.Values

	mean, sd := fitNormal(samples)
	lo, hi := mean-5*sd, mean+5*sd
	if sd == 0 {
		lo, hi = mean-1, mean+1
	}
	hist := stats.NewHistogram(lo, hi, 60)
	for _, v := range samples {
		hist.Add(v)
	}
	ratio := 0.0
	if mean > 0 {
		ratio = sd * math.Sqrt(float64(cfg.N)) / mean
	}
	return WindowDistResult{
		N:             cfg.N,
		BufferPackets: buffer,
		Samples:       samples,
		Mean:          mean,
		StdDev:        sd,
		KS:            stats.KSNormal(samples, mean, sd),
		CLTSigmaRatio: ratio,
		Histogram:     hist,
	}
}
