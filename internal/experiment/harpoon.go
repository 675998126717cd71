package experiment

import (
	"fmt"
	"math"

	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// HarpoonConfig recreates the paper's §5.2 lab methodology: traffic from a
// Harpoon-style closed-loop session generator (heavy-tailed files, think
// times) rather than permanently-backlogged senders. The experiment runs
// two phases: a calibration pass with ample buffers measures the
// equilibrium number of concurrent flows n̂, then the buffer is set to
// each factor × RTT×C/√n̂ and utilization measured — the Fig. 10 protocol
// under realistic load generation.
type HarpoonConfig struct {
	// Scenario: the path defaults to harpoonPath.
	Scenario

	Sessions  int
	Sizes     workload.SizeDist
	MeanThink units.Duration

	Factors []float64

	// RunEnv: Audit and Cache reach every run, each memoized keyed on the
	// config plus its buffer limit; Metrics sees the calibration run, and
	// the ladder after it is a sweep.
	RunEnv
}

// harpoonPath is the Fig. 10 lab at OC3 with the wide RTT range.
var harpoonPath = Path{
	BottleneckRate:  units.OC3,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          140 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         40 * units.Second,
}

func (c HarpoonConfig) withDefaults() HarpoonConfig {
	c.Path = c.Path.or(harpoonPath)
	// The session population must offer more demand than the link
	// carries, or the experiment measures demand rather than buffering:
	// each session moves a ~117 kB mean file per (transfer + 2 s think)
	// cycle, so ~2000 sessions oversubscribe an OC3 comfortably.
	if c.Sessions == 0 {
		c.Sessions = 2000
	}
	if c.Sizes == nil {
		c.Sizes = workload.ParetoSize{Shape: 1.2, Min: 10, Max: 20000}
	}
	if c.MeanThink == 0 {
		c.MeanThink = 2 * units.Second
	}
	if len(c.Factors) == 0 {
		c.Factors = []float64{0.5, 1, 2, 3}
	}
	return c
}

// HarpoonRow is one buffer point.
type HarpoonRow struct {
	Factor      float64
	Buffer      int
	Utilization float64
	MeanActive  float64
	Transfers   int64
}

// HarpoonResult is the full dataset.
type HarpoonResult struct {
	// CalibratedN is the equilibrium concurrent-flow count measured with
	// ample buffers; the rows' buffers are factors of RTTxC/sqrt(this).
	CalibratedN int
	SqrtRule    int
	Rows        []HarpoonRow
}

// harpoonRun is the cacheable outcome of one session-workload run.
type harpoonRun struct {
	Util       float64
	MeanActive float64
	Transfers  int64
}

// runHarpoonOnce runs the session workload against one packet-buffer
// limit. With cfg.Cache set the run is memoized under a key of the config
// (Factors cleared — they only pick which buffers run) plus the buffer.
func runHarpoonOnce(cfg HarpoonConfig, buffer int) harpoonRun {
	cfgKey := cfg
	cfgKey.Factors = nil
	key := struct {
		Base   HarpoonConfig
		Buffer int
	}{cfgKey, buffer}
	return memoRun(cfg.RunEnv, "harpoon-run", key, func() harpoonRun {
		return runHarpoonUncached(cfg, buffer)
	})
}

// runHarpoonUncached is the uncached body of runHarpoonOnce.
func runHarpoonUncached(cfg HarpoonConfig, buffer int) harpoonRun {
	// Sessions share stations round-robin.
	b := newBed(bedConfig{env: cfg.RunEnv, Scenario: cfg.Scenario, stations: min(cfg.Sessions, 200), buffer: buffer})
	g := b.start(workload.SessionSource{
		Sessions:  cfg.Sessions,
		Sizes:     cfg.Sizes,
		MeanThink: cfg.MeanThink,
		MaxWindow: 64,
	})
	active := b.tally(100*units.Millisecond, func() float64 { return float64(g.Active()) })

	// Generated less Active is the transfers finished so far: read where
	// the window opens (its first instant included) and where it closes,
	// the difference counts those finished in (from, to].
	finished := func() int64 { return g.Generated() - int64(g.Active()) }
	var before int64
	w := b.measure(func() { before = finished() })
	return harpoonRun{Util: w.Utilization, MeanActive: active.mean(), Transfers: finished() - before}
}

// RunHarpoon executes the two-phase experiment.
func RunHarpoon(cfg HarpoonConfig) HarpoonResult {
	cfg = cfg.withDefaults()

	// Phase 1: calibrate the concurrent-flow equilibrium with an ample
	// buffer (1x BDP, the rule-of-thumb).
	calib := runHarpoonOnce(cfg, cfg.BDP())
	n := int(math.Max(1, math.Round(calib.MeanActive)))

	// Phase 2: the buffer ladder around the calibrated rule.
	label := func(i int) string { return fmt.Sprintf("factor=%g", cfg.Factors[i]) }
	return HarpoonResult{CalibratedN: n, SqrtRule: cfg.SqrtRule(n), Rows: sweep("harpoon", cfg.RunEnv, label, len(cfg.Factors), func(i int, cell RunEnv) HarpoonRow {
		buffer := cfg.sqrtRuleTimes(cfg.Factors[i], n)
		point := cfg
		point.RunEnv = cell
		run := runHarpoonOnce(point, buffer)
		return HarpoonRow{
			Factor:      cfg.Factors[i],
			Buffer:      buffer,
			Utilization: run.Util,
			MeanActive:  run.MeanActive,
			Transfers:   run.Transfers,
		}
	})}
}
