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
	// Scenario: the path defaults to the long-lived scenario at OC3; each
	// design overrides Queue.
	Scenario

	N int

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
		queue  Queue
	}{
		{"droptail sqrt(n)", cfg.SqrtRule(cfg.N), DropTail},
		{"droptail RTTxC", ruleOfThumb, DropTail},
		{"codel (RTTxC capacity)", ruleOfThumb, CoDel},
	}
	label := func(i int) string { return "design=" + designs[i].label }
	return sweep("codel", cfg.RunEnv, label, len(designs), func(i int, cell RunEnv) CoDelRow {
		d := designs[i]
		run := LongLivedConfig{Scenario: cfg.Scenario, N: cfg.N, BufferPackets: d.buffer, RunEnv: cell}
		run.Queue = d.queue
		r := RunLongLived(run)
		return CoDelRow{
			Label:         d.label,
			BufferPackets: d.buffer,
			Utilization:   r.Utilization,
			QueueDelayP99: r.QueueDelayP99,
			LossRate:      r.LossRate,
		}
	})
}
