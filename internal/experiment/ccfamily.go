package experiment

import (
	"fmt"
	"text/tabwriter"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// CCFamilyConfig drives the updated-buffer-sizing-theory comparison
// (Spang, Arslan, McKeown, "Updating the Theory of Buffer Sizing"): how
// much buffer does each congestion-control family actually need as n
// grows? The 2004 rule B = RTT·C/sqrt(n) was derived for loss-based,
// window-driven Reno; the loss-based families are expected to track it
// (CUBIC with a larger constant, since its decrease is gentler), while
// the rate-based BBR's requirement is expected to decouple from n —
// which is exactly where the rule breaks.
//
// For every (variant, n) grid point the driver measures the variant's
// utilization ceiling at a generous buffer (two BDPs), bisects for the
// smallest buffer reaching Target x ceiling, and measures utilization
// at the paper's sqrt-rule buffer. Comparing min-buffer against the
// rule's prediction per family is the figure's payload. The relative
// target makes families with different ceilings comparable: each is
// asked to reach its own attainable throughput, not Reno's.
type CCFamilyConfig struct {
	// Scenario: the path defaults to the long-lived scenario at OC3;
	// Variants overrides Sender.Variant.
	Scenario

	// Ns are the long-lived flow counts to sweep.
	Ns []int
	// Variants are the congestion-control families to compare; defaults
	// to every registered variant.
	Variants []tcp.Variant

	// Target is the fraction of each variant's own large-buffer
	// utilization ceiling the min-buffer search must reach.
	Target float64

	// RunEnv: every probe is cached and audited, and each grid point is
	// one more cache unit on top; Metrics receives the sweep statistics.
	RunEnv
}

func (c CCFamilyConfig) withDefaults() CCFamilyConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{25, 50, 100, 200, 400}
	}
	if len(c.Variants) == 0 {
		c.Variants = tcp.Variants()
	}
	c.Path = c.Path.or(longLivedPath.at(units.OC3))
	if c.Target == 0 {
		c.Target = 0.95
	}
	return c
}

// CCFamilyPoint is one (variant, n) outcome of the buffer-requirement
// comparison.
type CCFamilyPoint struct {
	Variant tcp.Variant
	N       int

	// BDPPackets is MeanRTT x C in packets; SqrtRule is the 2004
	// recommendation BDP/sqrt(n).
	BDPPackets int
	SqrtRule   int

	// Ceiling is the variant's utilization with a two-BDP buffer — its
	// attainable throughput on this scenario — and Target the absolute
	// utilization the min-buffer search had to reach (Target x Ceiling).
	Ceiling float64
	Target  float64

	// MinBuffer is the smallest buffer reaching Target, by bisection;
	// equal to the search bound when unreachable.
	MinBuffer int
	// RuleRatio is MinBuffer / SqrtRule: 1.0 means the 2004 rule sizes
	// this family exactly; above 1 the rule under-provisions it.
	RuleRatio float64
	// BDPFraction is MinBuffer / BDP, the classic rule-of-thumb scale.
	BDPFraction float64

	// UtilAtRule is the measured utilization with exactly the sqrt-rule
	// buffer.
	UtilAtRule float64
}

// ccFamilyPointConfig is the semantic identity of one grid point for
// the run cache: the scenario plus the search parameters.
type ccFamilyPointConfig struct {
	Base     LongLivedConfig
	Target   float64
	SearchHi int

	// RunEnv is the sweep's: attaching Metrics or Audit to the sweep
	// re-walks every point's bisection.
	RunEnv
}

// CCFamilyTable is the cross-family buffer-requirement dataset, in
// (variant, n) grid order.
type CCFamilyTable []CCFamilyPoint

// Table implements Result.
func (t CCFamilyTable) Table() string {
	return tabulate(func(tw *tabwriter.Writer) {
		fmt.Fprintln(tw, "Variant\tFlows\tBDP\tSqrtRule\tMinBuffer\tMin/Rule\tMin/BDP\tUtil@Rule\tCeiling")
		for _, p := range t {
			fmt.Fprintf(tw, "%v\t%d\t%d\t%d\t%d\t%.2fx\t%.3f\t%.2f%%\t%.2f%%\n",
				p.Variant, p.N, p.BDPPackets, p.SqrtRule, p.MinBuffer,
				p.RuleRatio, p.BDPFraction, 100*p.UtilAtRule, 100*p.Ceiling)
		}
	})
}

// RunCCFamily measures the buffer requirement of every configured
// congestion-control family across the configured flow counts. Grid
// points run through the sweep orchestrator (parallel and cached); each
// point is internally sequential (its bisection probes depend on each
// other).
func RunCCFamily(cfg CCFamilyConfig) CCFamilyTable {
	cfg = cfg.withDefaults()
	label := func(i int) string {
		return fmt.Sprintf("variant=%s,n=%d", cfg.Variants[i/len(cfg.Ns)], cfg.Ns[i%len(cfg.Ns)])
	}
	return sweep("ccfamily", cfg.RunEnv, label, len(cfg.Variants)*len(cfg.Ns), func(i int, cell RunEnv) CCFamilyPoint {
		return runCCFamilyPoint(cfg, cell, cfg.Variants[i/len(cfg.Ns)], cfg.Ns[i%len(cfg.Ns)])
	})
}

// runCCFamilyPoint measures one (variant, n) grid point: ceiling,
// min-buffer bisection, and utilization at the sqrt-rule buffer.
func runCCFamilyPoint(cfg CCFamilyConfig, cell RunEnv, v tcp.Variant, n int) CCFamilyPoint {
	ll := LongLivedConfig{Scenario: cfg.Scenario, N: n, RunEnv: cell}
	ll.Sender.Variant = v
	bdp, sqrtRule := cfg.BDP(), cfg.SqrtRule(n)
	hi := max(2*bdp, 4*sqrtRule, 4)
	// The whole point is one cache unit (kind "ccfamily-point") on top
	// of the per-run memoization, so a cached sweep replays instantly
	// instead of re-walking the bisection's probe sequence.
	key := ccFamilyPointConfig{Base: ll, Target: cfg.Target, SearchHi: hi, RunEnv: cfg.RunEnv}
	return memoRun(key.RunEnv, "ccfamily-point", key, func() CCFamilyPoint {
		// measured records the utilization at every buffer the point has
		// simulated. The ceiling, the search and the rule all read it, so
		// no buffer runs twice: the search's top probe is the ceiling,
		// and the rule buffer may be one of its probes. Each run publishes
		// under a registry of its own — ceiling/, search/buffer=<b>/,
		// rule/ — and a buffer read from the record publishes none.
		measured := map[int]float64{}
		util := func(env RunEnv, name string, b int) float64 {
			u, ok := measured[b]
			if !ok {
				u = arm(env, name, ll.utilAt(b))
				measured[b] = u
			}
			return u
		}
		ceiling := util(cell, "ceiling", hi)
		target := cfg.Target * ceiling
		minB := arm(cell, "search", func(env RunEnv) int {
			return minBufferBelow(target, hi, func(b int) float64 {
				return util(env, fmt.Sprintf("buffer=%d", b), b)
			})
		})
		return CCFamilyPoint{
			Variant:     v,
			N:           n,
			BDPPackets:  bdp,
			SqrtRule:    sqrtRule,
			Ceiling:     ceiling,
			Target:      target,
			MinBuffer:   minB,
			RuleRatio:   float64(minB) / float64(sqrtRule),
			BDPFraction: float64(minB) / float64(bdp),
			UtilAtRule:  util(cell, "rule", sqrtRule),
		}
	})
}
