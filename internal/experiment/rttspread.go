package experiment

import (
	"fmt"

	"bufsim/internal/units"
)

// RTTSpreadConfig probes §3's desynchronization mechanism directly:
// "small variations in RTT or processing time are sufficient to prevent
// synchronization". We hold everything fixed (n flows, 1x sqrt-rule
// buffer) and sweep only the width of the RTT distribution, from
// perfectly homogeneous (a synchronization greenhouse) to the paper's
// heterogeneous regime, measuring utilization and the aggregate-window
// synchronization index.
type RTTSpreadConfig struct {
	// Scenario: the path defaults to rttSpreadPath. [RTTMin, RTTMax] only
	// fixes the centre the sweep holds (its MeanRTT); each spread
	// replaces the width.
	Scenario

	N            int
	Spreads      []units.Duration // full widths of the RTT distribution
	BufferFactor float64

	// RunEnv: each spread's two runs (window distribution and long-lived)
	// are cached and audited.
	RunEnv
}

// rttSpreadPath leaves the bottleneck delay and the window unset: a
// spread's two runs each take their own scenario's (Fig. 6's 10 ms and
// 20+60 s, the long-lived 5 ms and 20+40 s) unless the caller sets one
// for both.
var rttSpreadPath = Path{
	BottleneckRate: units.OC3,
	RTTMin:         60 * units.Millisecond,
	RTTMax:         140 * units.Millisecond,
	SegmentSize:    units.DefaultSegment,
}

func (c RTTSpreadConfig) withDefaults() RTTSpreadConfig {
	if c.N == 0 {
		c.N = 200
	}
	c.Path = c.Path.or(rttSpreadPath)
	if len(c.Spreads) == 0 {
		c.Spreads = []units.Duration{
			0, 5 * units.Millisecond, 20 * units.Millisecond, 80 * units.Millisecond,
		}
	}
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	return c
}

// RTTSpreadPoint is one spread's outcome.
type RTTSpreadPoint struct {
	Spread      units.Duration
	Utilization float64
	// SyncIndex is the aggregate-window CoV over the independent-flows
	// CLT prediction (1 = desynchronized; see SyncPoint).
	SyncIndex float64
}

// RunRTTSpread executes the ablation. Points run in parallel.
func RunRTTSpread(cfg RTTSpreadConfig) RTTSpreadTable {
	cfg = cfg.withDefaults()
	mean := cfg.MeanRTT()
	buffer := cfg.sqrtRuleTimes(cfg.BufferFactor, cfg.N)

	label := func(i int) string { return fmt.Sprintf("spread=%v", cfg.Spreads[i]) }
	return sweep("rtt-spread", cfg.RunEnv, label, len(cfg.Spreads), func(i int, cell RunEnv) RTTSpreadPoint {
		spread := cfg.Spreads[i]
		// A zero spread means identical RTTs, still drawn (RTTMax is set).
		sc := cfg.Scenario
		sc.Seed += int64(i)
		sc.RTTMin, sc.RTTMax = mean-spread/2, mean+spread/2
		// RunWindowDist gives the aggregate-window moments, RunLongLived
		// the utilization at the sqrt-rule buffer.
		wd := arm(cell, "window", func(env RunEnv) WindowDistResult {
			return RunWindowDist(WindowDistConfig{Scenario: sc, N: cfg.N, BufferFactor: cfg.BufferFactor, RunEnv: env})
		})
		ll := arm(cell, "util", func(env RunEnv) LongLivedResult {
			return RunLongLived(LongLivedConfig{Scenario: sc, N: cfg.N, BufferPackets: buffer, RunEnv: env})
		})
		return RTTSpreadPoint{
			Spread:      spread,
			Utilization: ll.Utilization,
			SyncIndex:   syncIndex(wd.StdDev, wd.Mean, cfg.N),
		}
	})
}
