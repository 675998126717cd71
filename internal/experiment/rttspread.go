package experiment

import (
	"math"

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
	Seed int64

	N int
	// Path defaults to rttSpreadPath. [RTTMin, RTTMax] only fixes the
	// centre the sweep holds (its MeanRTT); each spread replaces the
	// width.
	Path
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

	return sweep("rtt-spread", cfg, cfg.RunEnv, len(cfg.Spreads), func(i int, cell RunEnv) RTTSpreadPoint {
		spread := cfg.Spreads[i]
		// A zero spread means identical RTTs, still drawn (RTTMax is set).
		path := cfg.Path
		path.RTTMin, path.RTTMax = mean-spread/2, mean+spread/2
		// RunWindowDist gives the aggregate-window moments, RunLongLived
		// the utilization at the sqrt-rule buffer.
		wd := RunWindowDist(WindowDistConfig{
			Seed: cfg.Seed + int64(i), N: cfg.N, Path: path,
			BufferFactor: cfg.BufferFactor,
			RunEnv:       cell,
		})
		cov := 0.0
		if wd.Mean > 0 {
			cov = wd.StdDev / wd.Mean
		}
		ll := RunLongLived(LongLivedConfig{
			Seed: cfg.Seed + int64(i), N: cfg.N, Path: path,
			BufferPackets: buffer,
			RunEnv:        cell,
		})
		return RTTSpreadPoint{
			Spread:      spread,
			Utilization: ll.Utilization,
			SyncIndex:   cov / (sawtoothCoV / math.Sqrt(float64(cfg.N))),
		}
	})
}
