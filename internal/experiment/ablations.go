package experiment

import (
	"fmt"

	"bufsim/internal/model"
	"bufsim/internal/stats"
	"bufsim/internal/trace"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// PacingConfig drives the pacing ablation: the technical report argues
// that sender pacing removes the burstiness that forces buffers above the
// sqrt(n) rule when n is small. We compare utilization with and without
// pacing across buffer sizes well below the single-flow rule of thumb.
type PacingConfig struct {
	// Scenario: the path defaults to the long-lived scenario at 40 Mb/s;
	// Sender.Paced is the axis, set on one arm and cleared on the other.
	Scenario

	N             int
	BufferFactors []float64 // multiples of RTTxC/sqrt(n)

	// RunEnv: Audit and Cache reach the underlying long-lived runs; the
	// buffer points are a sweep.
	RunEnv
}

func (c PacingConfig) withDefaults() PacingConfig {
	if c.N == 0 {
		c.N = 25
	}
	c.Path = c.Path.or(longLivedPath.at(40 * units.Mbps))
	if len(c.BufferFactors) == 0 {
		c.BufferFactors = []float64{0.25, 0.5, 1}
	}
	return c
}

// PacingPoint compares the two senders at one buffer size.
type PacingPoint struct {
	BufferPackets int
	Factor        float64
	UtilUnpaced   float64
	UtilPaced     float64
}

// RunPacingAblation executes the pacing comparison.
func RunPacingAblation(cfg PacingConfig) PacingTable {
	cfg = cfg.withDefaults()
	label := func(i int) string { return fmt.Sprintf("factor=%g", cfg.BufferFactors[i]) }
	return sweep("pacing", cfg.RunEnv, label, len(cfg.BufferFactors), func(i int, cell RunEnv) PacingPoint {
		f := cfg.BufferFactors[i]
		unpaced := LongLivedConfig{
			Scenario: cfg.Scenario, N: cfg.N,
			BufferPackets: cfg.sqrtRuleTimes(f, cfg.N),
			RunEnv:        cell,
		}
		unpaced.Sender.Paced = false
		paced := unpaced
		paced.Sender.Paced = true
		return PacingPoint{
			BufferPackets: unpaced.BufferPackets,
			Factor:        f,
			UtilUnpaced:   arm(cell, "unpaced", unpaced.utilAt(unpaced.BufferPackets)),
			UtilPaced:     arm(cell, "paced", paced.utilAt(paced.BufferPackets)),
		}
	})
}

// SmoothingConfig drives the §4 access-link ablation. The paper: "for our
// model and simulation we assumed access links that are faster than the
// bottleneck link. There is evidence that highly aggregated traffic from
// slow access links in some cases can lead to bursts being smoothed out
// completely. In this case individual packet arrivals are close to
// Poisson, resulting in even smaller buffers" (computable with M/D/1).
//
// We measure short-flow queue tails with fast access links (slow-start
// bursts arrive intact -> M/G/1 with bursty X) versus slow access links
// (bursts smeared -> toward M/D/1).
type SmoothingConfig struct {
	// Scenario: the path defaults to smoothingPath.
	Scenario

	Load      float64
	FlowLen   int64
	MaxWindow int
	Stations  int

	// AccessRatios are access-link rates as multiples of the bottleneck:
	// 10x approximates the paper's "infinite speed" worst case; ratios
	// well below 1 model the paper's "highly aggregated traffic from
	// slow access links", which smears slow-start bursts toward
	// per-packet Poisson arrivals.
	AccessRatios []float64

	// TailAt is the queue depth at which P(Q >= b) is measured.
	TailAt int

	// RunEnv: every access-ratio point is cached and audited; the points
	// are a sweep.
	RunEnv
}

// smoothingPath is the short-flow scenario at 40 Mb/s, watched for a
// minute.
var smoothingPath = Path{
	BottleneckRate:  40 * units.Mbps,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          10 * units.Second,
	Measure:         60 * units.Second,
}

func (c SmoothingConfig) withDefaults() SmoothingConfig {
	c.Path = c.Path.or(smoothingPath)
	if c.Load == 0 {
		c.Load = 0.8
	}
	if c.FlowLen == 0 {
		c.FlowLen = 30
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 43
	}
	if c.Stations == 0 {
		c.Stations = 50
	}
	if len(c.AccessRatios) == 0 {
		c.AccessRatios = []float64{10, 1, 0.25}
	}
	if c.TailAt == 0 {
		c.TailAt = 20
	}
	return c
}

// SmoothingPoint is one access-ratio measurement.
type SmoothingPoint struct {
	AccessRatio float64
	// TailProb is the measured P(Q >= TailAt) at the bottleneck,
	// sampled at packet enqueue times.
	TailProb float64
	// MeanQueue is the time-averaged occupancy.
	MeanQueue float64
	// ModelMG1 and ModelMD1 bracket the measurement: bursty slow-start
	// arrivals vs fully smoothed Poisson packets.
	ModelMG1 float64
	ModelMD1 float64
}

// RunSmoothing executes the access-link smoothing ablation. With
// cfg.Cache set, each access-ratio point is memoized under a key with
// AccessRatios narrowed to that single ratio, so points are shared
// between runs that sweep different ratio lists.
func RunSmoothing(cfg SmoothingConfig) SmoothingTable {
	cfg = cfg.withDefaults()
	moments := model.MomentsForFlowLength(cfg.FlowLen, 2, cfg.MaxWindow)

	label := func(i int) string { return fmt.Sprintf("access=%g", cfg.AccessRatios[i]) }
	return SmoothingTable{TailAt: cfg.TailAt, Points: sweep("smoothing", cfg.RunEnv, label, len(cfg.AccessRatios), func(i int, cell RunEnv) SmoothingPoint {
		ratio := cfg.AccessRatios[i]
		run := cfg
		run.RunEnv = cell
		cfgKey := run
		cfgKey.AccessRatios = []float64{ratio}
		return memoRun(cell, "smoothing", cfgKey, func() SmoothingPoint {
			return runSmoothingPoint(run, ratio, moments)
		})
	})}
}

// runSmoothingPoint measures one access ratio under cfg's RunEnv; cfg has
// defaults applied.
func runSmoothingPoint(cfg SmoothingConfig, ratio float64, moments model.BurstMoments) SmoothingPoint {
	b := newBed(bedConfig{
		env:        cfg.RunEnv,
		Scenario:   cfg.Scenario,
		stations:   cfg.Stations,
		accessRate: units.BitRate(ratio * float64(cfg.BottleneckRate)),
	})
	gen := b.start(workload.PoissonSource{
		Load:      cfg.Load,
		Sizes:     workload.FixedSize(cfg.FlowLen),
		MaxWindow: cfg.MaxWindow,
	})

	// Sample the queue during the window (arrival sampling, matching the
	// model's P(Q >= b) seen by arrivals).
	var depth *trace.Series
	b.measure(func() {
		depth = b.sample("queue_pkts", units.Millisecond,
			func() float64 { return float64(b.d.Bottleneck.Queue().Len()) })
	})
	gen.Stop()

	p := SmoothingPoint{
		AccessRatio: ratio,
		MeanQueue:   stats.Mean(depth.Values),
		ModelMG1:    moments.QueueTail(cfg.Load, float64(cfg.TailAt)),
		ModelMD1:    model.MD1QueueTail(cfg.Load, float64(cfg.TailAt)),
	}
	exceed := 0
	for _, q := range depth.Values {
		if q >= float64(cfg.TailAt) {
			exceed++
		}
	}
	if n := depth.Len(); n > 0 {
		p.TailProb = float64(exceed) / float64(n)
	}
	return p
}
