package experiment

import (
	"fmt"
	"math"

	"bufsim/internal/model"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// UtilizationTableConfig reproduces Fig. 10: the Cisco-GSR validation
// table. For each flow count and each multiple of RTTxC/sqrt(n) it reports
// the model's predicted utilization and the simulated utilization (the
// paper's third column, Exp., was the physical router we substitute with
// the same scenario in this simulator — see DESIGN.md).
type UtilizationTableConfig struct {
	// Scenario: the path defaults to tablePath (the paper ran OC3); Queue
	// RED is the ablation that runs the same table under RED.
	Scenario

	Ns      []int     // paper: 100, 200, 300, 400
	Factors []float64 // paper: 0.5, 1, 2, 3

	// RunEnv: every cell is cached and audited. With Metrics set each
	// (n, factor) cell runs with its own child registry, merged in
	// deterministic cell order under an "n=...,factor=..." prefix once the
	// sweep finishes. Rows are byte-identical with Metrics nil or set, at
	// any Parallelism.
	RunEnv
}

// tablePath is the OC3 bed of the paper's long-lived sweeps (Figs. 7 and
// 10): the long-lived scenario behind a 10 ms bottleneck.
var tablePath = Path{
	BottleneckRate:  units.OC3,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          60 * units.Millisecond,
	RTTMax:          100 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         40 * units.Second,
}

func (c UtilizationTableConfig) withDefaults() UtilizationTableConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{100, 200, 300, 400}
	}
	if len(c.Factors) == 0 {
		c.Factors = []float64{0.5, 1, 2, 3}
	}
	c.Path = c.Path.or(tablePath)
	return c
}

// UtilizationRow is one Fig. 10 row.
type UtilizationRow struct {
	N       int
	Factor  float64 // multiple of RTTxC/sqrt(n)
	Packets int     // buffer in packets
	RAMMbit float64 // buffer size in megabits (paper's "RAM" column)

	ModelUtil float64 // Gaussian-model prediction
	SimUtil   float64 // measured in simulation
	LossRate  float64
}

// RunUtilizationTable executes the Fig. 10 table.
func RunUtilizationTable(cfg UtilizationTableConfig) UtilizationTable {
	cfg = cfg.withDefaults()
	bdp := cfg.BDP()

	// Grid cell k is (n, factor), n-major.
	at := func(k int) (int, float64) {
		return cfg.Ns[k/len(cfg.Factors)], cfg.Factors[k%len(cfg.Factors)]
	}
	label := func(k int) string {
		n, factor := at(k)
		return fmt.Sprintf("n=%d,factor=%g", n, factor)
	}
	return sweep("utilization-table", cfg.RunEnv, label, len(cfg.Ns)*len(cfg.Factors), func(k int, cell RunEnv) UtilizationRow {
		n, factor := at(k)
		gauss := model.LongFlowGaussian{N: n, BDP: float64(bdp)}
		// Scaled first, rounded after: the pinned table's own rounding.
		buffer := int(math.Max(1, math.Round(factor*float64(bdp)/math.Sqrt(float64(n)))))
		run := LongLivedConfig{Scenario: cfg.Scenario, N: n, BufferPackets: buffer, RunEnv: cell}
		run.Seed += int64(n)*100 + int64(factor*10)
		r := RunLongLived(run)
		return UtilizationRow{
			N: n, Factor: factor, Packets: buffer,
			RAMMbit:   float64(buffer) * float64(cfg.SegmentSize.Bits()) / 1e6,
			ModelUtil: gauss.Utilization(float64(buffer)),
			SimUtil:   r.Utilization,
			LossRate:  r.LossRate,
		}
	})
}

// ProductionConfig reproduces Fig. 11: the Stanford dormitory experiment.
// The paper throttled a campus router to 20 Mb/s serving an estimated 400
// concurrent flows of live traffic and measured utilization at four buffer
// sizes. We substitute a synthetic production mix: a base of long-lived
// flows plus Poisson arrivals of bounded-Pareto (heavy-tailed) short
// flows.
type ProductionConfig struct {
	// Scenario: the path defaults to productionPath.
	Scenario

	NLong     int     // persistent flows (bulk transfers)
	ShortLoad float64 // offered load from the heavy-tailed short flows
	Pareto    workload.ParetoSize

	Buffers []int // packets; paper: 500, 85, 65, 46

	// RunEnv: every buffer point is cached and audited; the points are
	// independent simulations, so rows are identical at any Parallelism.
	RunEnv
}

// productionPath is the throttled campus router: 20 Mb/s, and the wide
// RTT range of live Internet traffic.
var productionPath = Path{
	BottleneckRate:  20 * units.Mbps,
	BottleneckDelay: 10 * units.Millisecond,
	RTTMin:          40 * units.Millisecond,
	RTTMax:          250 * units.Millisecond,
	SegmentSize:     units.DefaultSegment,
	Warmup:          20 * units.Second,
	Measure:         60 * units.Second,
}

func (c ProductionConfig) withDefaults() ProductionConfig {
	c.Path = c.Path.or(productionPath)
	if c.NLong == 0 {
		c.NLong = 60
	}
	if c.ShortLoad == 0 {
		c.ShortLoad = 0.25
	}
	if c.Pareto == (workload.ParetoSize{}) {
		c.Pareto = workload.ParetoSize{Shape: 1.2, Min: 2, Max: 5000}
	}
	if len(c.Buffers) == 0 {
		c.Buffers = []int{46, 65, 85, 500}
	}
	return c
}

// ProductionRow is one Fig. 11 row.
type ProductionRow struct {
	Buffer          int
	SqrtRuleRatio   float64 // buffer / (RTT x C / sqrt(n_effective))
	Utilization     float64
	ModelUtil       float64
	MeanConcurrent  float64 // measured mean concurrent flows (the paper's "~400")
	AFCT            units.Duration
	ShortsCompleted int
}

// RunProduction executes the Fig. 11 experiment.
func RunProduction(cfg ProductionConfig) ProductionTable {
	cfg = cfg.withDefaults()
	bdp := float64(cfg.BDP())

	label := func(bi int) string { return fmt.Sprintf("buffer=%d", cfg.Buffers[bi]) }
	return sweep("production", cfg.RunEnv, label, len(cfg.Buffers), func(bi int, cell RunEnv) ProductionRow {
		buffer := cfg.Buffers[bi]
		// The per-point key is the config narrowed to this one buffer,
		// so the same point is shared across different Buffers lists.
		cfgKey := cfg
		cfgKey.Buffers = []int{buffer}
		return memoRun(cell, "production", cfgKey, func() ProductionRow {
			return runProductionPoint(cfg, cell, buffer, bdp)
		})
	})
}

// runProductionPoint simulates one Fig. 11 buffer point under env.
func runProductionPoint(cfg ProductionConfig, env RunEnv, buffer int, bdp float64) ProductionRow {
	b := newBed(bedConfig{env: env, Scenario: cfg.Scenario, stations: cfg.NLong + 100, buffer: buffer})
	workload.StartLongLived(b.d, cfg.NLong, b.spec, b.rng.Fork(), cfg.Warmup/2)
	gen := b.start(workload.PoissonSource{Load: cfg.ShortLoad, Sizes: cfg.Pareto, MaxWindow: 43})
	concurrent := b.tally(100*units.Millisecond, func() float64 { return float64(cfg.NLong + gen.Active()) })

	w := b.measure(nil)
	gen.Stop()
	b.drain(30*units.Second, gen)
	afct, completed, _ := gen.Window()

	meanConc := concurrent.mean()
	effN := int(math.Max(1, meanConc))
	gauss := model.LongFlowGaussian{N: effN, BDP: bdp}
	return ProductionRow{
		Buffer:          buffer,
		SqrtRuleRatio:   float64(buffer) / (bdp / math.Sqrt(float64(effN))),
		Utilization:     w.Utilization,
		ModelUtil:       gauss.Utilization(float64(buffer)),
		MeanConcurrent:  meanConc,
		AFCT:            afct,
		ShortsCompleted: completed,
	}
}
