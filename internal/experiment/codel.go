package experiment

import (
	"bufsim/internal/units"
)

// CoDelConfig drives the CoDel extension: the 2012 answer to the
// buffer-sizing question is to manage *delay* instead of capacity. We
// compare three designs on one scenario:
//
//   - drop-tail sized by the paper's sqrt(n) rule,
//   - drop-tail at the full rule of thumb (the overbuffered status quo),
//   - CoDel with the rule-of-thumb's physical capacity but a 5 ms sojourn
//     target.
//
// If the paper's argument holds, the first and third should both deliver
// high utilization at low delay, while the second pays the delay cost.
type CoDelConfig struct {
	Seed int64

	N int
	// Path defaults to the long-lived scenario at OC3.
	Path

	// RunEnv: every design is cached and audited.
	RunEnv
}

func (c CoDelConfig) withDefaults() CoDelConfig {
	if c.N == 0 {
		c.N = 200
	}
	c.Path = c.Path.or(longLivedPath.at(units.OC3))
	return c
}

// CoDelRow is one design's outcome.
type CoDelRow struct {
	Label         string
	BufferPackets int
	Utilization   float64
	QueueDelayP99 units.Duration
	LossRate      float64
}

// RunCoDel executes the comparison. Rows run in parallel.
func RunCoDel(cfg CoDelConfig) CoDelTable {
	cfg = cfg.withDefaults()
	ruleOfThumb := max(1, cfg.BDP())
	designs := []struct {
		label  string
		buffer int
		codel  bool
	}{
		{"droptail sqrt(n)", cfg.SqrtRule(cfg.N), false},
		{"droptail RTTxC", ruleOfThumb, false},
		{"codel (RTTxC capacity)", ruleOfThumb, true},
	}
	return sweep("codel", cfg, cfg.RunEnv, len(designs), func(i int, cell RunEnv) CoDelRow {
		d := designs[i]
		r := RunLongLived(LongLivedConfig{
			Seed: cfg.Seed, N: cfg.N, Path: cfg.Path,
			BufferPackets: d.buffer, UseCoDel: d.codel,
			RunEnv: cell,
		})
		return CoDelRow{
			Label:         d.label,
			BufferPackets: d.buffer,
			Utilization:   r.Utilization,
			QueueDelayP99: r.QueueDelayP99,
			LossRate:      r.LossRate,
		}
	})
}
