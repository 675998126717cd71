package experiment

import (
	"fmt"
	"math"
	"text/tabwriter"

	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// ProfileRunConfig is one run of an arbitrary workload.Source — a
// time-varying profile, a trace, sessions, or the stationary Poisson
// source — over a single bottleneck. It is the unified back end the
// workload API threads every traffic front end through; under a
// workload.PoissonSource of fixed-length flows it is the paper's
// short-flow scenario (Fig. 8; the public API's Generated traffic kind).
type ProfileRunConfig struct {
	// Scenario: BottleneckRate is the caller's; the rest of the path
	// defaults to shortFlowPath. A RED queue is sized to BufferPackets
	// (which must then be positive — RED thresholds need a capacity).
	Scenario
	BufferPackets int // 0 = unlimited

	// Source is the workload; required. Sources are pure data, so the
	// run cache keys on the source's concrete type and fields. Its flows
	// run the Scenario's sender; a source adds only its window cap.
	Source workload.Source

	Stations int

	// Drain is at most how long the run goes on after the measurement
	// window for flows that started in it to finish; it ends sooner
	// once they all have, and those still running at Drain count as
	// censored (default 30s).
	Drain units.Duration

	// RunEnv: Metrics, Audit and Cache.
	RunEnv
}

// shortFlowPath is the paper's short-flow bed short of its line rate:
// station RTTs +-40% around 100 ms behind a 10 ms bottleneck.
var shortFlowPath = Path{
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          10 * units.Second,
	Measure:         40 * units.Second,
}

func (c ProfileRunConfig) withDefaults() ProfileRunConfig {
	c.Path = c.Path.or(shortFlowPath)
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.Drain == 0 {
		c.Drain = 30 * units.Second
	}
	return c
}

// ProfileRunResult is the cacheable outcome of one workload run: the
// bottleneck's view (utilization, loss, queue occupancy) plus the
// workload's (active-flow trajectory, flow completion times).
type ProfileRunResult struct {
	// Utilization is the bottleneck busy fraction over the measurement
	// window.
	Utilization float64
	// LossRate is dropped/offered at the bottleneck queue over the
	// measurement window.
	LossRate float64
	// MeanQueue and PeakQueue are the bottleneck queue occupancy over
	// the measurement window, in packets.
	MeanQueue float64
	PeakQueue int
	// MeanActive and PeakActive summarize the sampled n(t) — in-flight
	// short flows plus live long-lived flows — over the window.
	MeanActive float64
	PeakActive float64
	// Generated counts flows launched during the whole run; AFCT,
	// Completed and Censored cover flows that started in the window
	// (censored = still unfinished after the drain period).
	Generated int64
	AFCT      units.Duration
	Completed int
	Censored  int
}

// RunProfile runs one workload scenario. With cfg.Cache set the outcome
// is memoized under the config (source included).
func RunProfile(cfg ProfileRunConfig) ProfileRunResult {
	cfg = cfg.withDefaults()
	if cfg.Source == nil {
		panic("experiment: ProfileRunConfig requires a Source")
	}
	return memoRun(cfg.RunEnv, "profile", cfg, func() ProfileRunResult {
		return runProfileUncached(cfg)
	})
}

// runProfileUncached is the uncached body of RunProfile; cfg has
// defaults applied. The pinned short_flows digest holds the build-up
// sequence of scheduler, RNG forks, topology and generator to what the
// stationary Poisson scenario has always drawn.
func runProfileUncached(cfg ProfileRunConfig) ProfileRunResult {
	b := newBed(bedConfig{env: cfg.RunEnv, Scenario: cfg.Scenario, stations: cfg.Stations, buffer: cfg.BufferPackets})
	drv := b.start(cfg.Source)
	active := b.tally(100*units.Millisecond, func() float64 { return float64(drv.Active()) })

	w := b.measure(nil)
	drv.Stop()
	b.drain(cfg.Drain, drv)

	res := ProfileRunResult{
		Utilization: w.Utilization,
		LossRate:    w.LossRate,
		MeanQueue:   w.MeanQueue,
		PeakQueue:   w.PeakQueue,
		MeanActive:  active.mean(),
		PeakActive:  active.max,
		Generated:   drv.Generated(),
	}
	res.AFCT, res.Completed, res.Censored = drv.Window()
	return res
}

// FlashCrowdConfig sweeps buffer sizes against a traffic surge: a
// time-varying profile whose arrival rate and long-lived population
// spike together, the n(t) regime the 2004 rule's fixed n never
// modeled. For each buffer the sweep reports loss, utilization and
// queue occupancy through the surge.
type FlashCrowdConfig struct {
	// Scenario: the path defaults to flashCrowdPath; an unset Measure is
	// the profile's own length where it has one. The Sender runs every
	// flow.
	Scenario

	Stations  int
	MaxWindow int // short-flow receiver cap; paper cites 12-43

	// Profile is the workload shape; the zero value means the
	// flashcrowd preset. Curves are treated as shapes and rescaled so
	// the arrival peak offers PeakLoad and the population peak is
	// PeakFlows (see profile.Profile.ScaleTo).
	Profile profile.Profile
	// PeakLoad is the short-flow offered load at the arrival peak
	// (default 0.85; the quiet baseline is the preset's 10% of that).
	PeakLoad float64
	// PeakFlows is the long-lived population at the spike's peak
	// (default 20).
	PeakFlows int
	// FlowLength is the short-flow size in segments (default 14).
	FlowLength int64

	// Buffers lists the swept buffer sizes in packets; empty derives
	// {5%, 12.5%, 25%, 50%, 100%} of the bandwidth-delay product.
	Buffers []int

	// Drain bounds each point's drain as ProfileRunConfig.Drain does:
	// at most this long past the window (default 30s).
	Drain units.Duration

	// RunEnv: the sweep is cached and cancellable like every other. With
	// Metrics set each point runs with a child registry merged under
	// "buffer=...".
	RunEnv
}

// flashCrowdPath is the short-flow bed at 50 Mb/s with a short warm-up:
// the surge, not the steady state, is what is measured.
var flashCrowdPath = Path{
	BottleneckRate:  50 * units.Mbps,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          5 * units.Second,
	Measure:         60 * units.Second,
}

func (c FlashCrowdConfig) withDefaults() FlashCrowdConfig {
	if len(c.Profile.Arrival) == 0 && len(c.Profile.Population) == 0 {
		c.Profile = profile.FlashCrowd.Profile()
	}
	path := flashCrowdPath
	if d := c.Profile.Duration(); d != 0 {
		path.Measure = d
	}
	c.Path = c.Path.or(path)
	if c.Stations == 0 {
		c.Stations = 50
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 32
	}
	if c.PeakLoad == 0 {
		c.PeakLoad = 0.85
	}
	if c.PeakFlows == 0 {
		c.PeakFlows = 20
	}
	if c.FlowLength == 0 {
		c.FlowLength = 14
	}
	if len(c.Buffers) == 0 {
		bdp := float64(c.BDP())
		for _, f := range []float64{0.05, 0.125, 0.25, 0.5, 1.0} {
			b := int(math.Max(1, math.Round(f*bdp)))
			if n := len(c.Buffers); n == 0 || c.Buffers[n-1] != b {
				c.Buffers = append(c.Buffers, b)
			}
		}
	}
	if c.Drain == 0 {
		c.Drain = 30 * units.Second
	}
	return c
}

// flashCrowdSource builds the swept workload: the config's profile
// rescaled to its load and population targets.
func flashCrowdSource(cfg FlashCrowdConfig) workload.Source {
	sizes := workload.FixedSize(cfg.FlowLength)
	peakRate := workload.ArrivalRateForLoad(cfg.PeakLoad, cfg.BottleneckRate, cfg.SegmentSize, sizes)
	return profile.Source{
		Profile:   cfg.Profile.ScaleTo(peakRate, float64(cfg.PeakFlows)),
		Sizes:     sizes,
		MaxWindow: cfg.MaxWindow,
	}
}

// FlashCrowdRow is one swept buffer's outcome.
type FlashCrowdRow struct {
	// Buffer is the bottleneck buffer in packets; BufferBDP the same as
	// a fraction of the bandwidth-delay product.
	Buffer    int
	BufferBDP float64

	Utilization float64
	LossRate    float64
	MeanQueue   float64
	PeakQueue   int
	MeanActive  float64
	PeakActive  float64
	AFCT        units.Duration
	Completed   int
	Censored    int
}

// FlashCrowdTable is the flashcrowd experiment's dataset: buffer size
// vs how the bottleneck rides out the surge.
type FlashCrowdTable []FlashCrowdRow

// Table implements Result.
func (t FlashCrowdTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Buffer\txBDP\tUtil\tLoss\tMeanQ\tPeakQ\tPeakN\tAFCT\tFlows\tCensored")
		for _, r := range t {
			fmt.Fprintf(tw, "%d\t%.3f\t%.1f%%\t%.2f%%\t%.1f\t%d\t%.0f\t%v\t%d\t%d\n",
				r.Buffer, r.BufferBDP, 100*r.Utilization, 100*r.LossRate,
				r.MeanQueue, r.PeakQueue, r.PeakActive, roundMS(r.AFCT), r.Completed, r.Censored)
		}
	})
}

// RunFlashCrowd executes the flashcrowd experiment: one RunProfile per
// buffer size, fanned out through the sweep runner, every
// point memoized (source included in the key) when a cache is set.
func RunFlashCrowd(cfg FlashCrowdConfig) FlashCrowdTable {
	cfg = cfg.withDefaults()
	src := flashCrowdSource(cfg)
	bdp := float64(cfg.BDP())
	label := func(k int) string { return fmt.Sprintf("buffer=%d", cfg.Buffers[k]) }
	return sweep("flashcrowd", cfg.RunEnv, label, len(cfg.Buffers), func(k int, cell RunEnv) FlashCrowdRow {
		buffer := cfg.Buffers[k]
		res := RunProfile(ProfileRunConfig{
			Scenario: cfg.Scenario, BufferPackets: buffer,
			Source: src, Stations: cfg.Stations, Drain: cfg.Drain,
			RunEnv: cell,
		})
		return FlashCrowdRow{
			Buffer:      buffer,
			BufferBDP:   float64(buffer) / bdp,
			Utilization: res.Utilization,
			LossRate:    res.LossRate,
			MeanQueue:   res.MeanQueue,
			PeakQueue:   res.PeakQueue,
			MeanActive:  res.MeanActive,
			PeakActive:  res.PeakActive,
			AFCT:        res.AFCT,
			Completed:   res.Completed,
			Censored:    res.Censored,
		}
	})
}
