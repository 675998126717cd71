package experiment

import (
	"fmt"

	"bufsim/internal/units"
)

// ECNConfig drives the ECN ablation: RED that marks (with ECN-capable
// senders) versus RED that drops, at the same sqrt(n)-rule buffer. Marking
// delivers the congestion signal without losing packets, so the same tiny
// buffer should yield equal-or-better utilization with near-zero loss —
// an AQM-era postscript to the paper's drop-tail result.
type ECNConfig struct {
	// Scenario: the path defaults to the long-lived scenario at OC3; the
	// two arms override Queue (RED, then REDECN).
	Scenario

	N            int
	BufferFactor float64 // multiple of RTTxC/sqrt(n)

	// RunEnv: Audit and Cache reach both arms, a sweep of two.
	RunEnv
}

func (c ECNConfig) withDefaults() ECNConfig {
	if c.N == 0 {
		c.N = 200
	}
	c.Path = c.Path.or(longLivedPath.at(units.OC3))
	if c.BufferFactor == 0 {
		c.BufferFactor = 2
	}
	return c
}

// ECNResult compares marking and dropping.
type ECNResult struct {
	BufferPackets int
	Drop          LongLivedResult // RED dropping
	Mark          LongLivedResult // RED marking + ECN senders
}

// RunECN executes the ablation.
func RunECN(cfg ECNConfig) ECNResult {
	cfg = cfg.withDefaults()
	buffer := cfg.sqrtRuleTimes(cfg.BufferFactor, cfg.N)
	arms := []Queue{RED, REDECN}
	label := func(i int) string { return fmt.Sprintf("queue=%s", arms[i]) }
	res := sweep("ecn", cfg.RunEnv, label, len(arms), func(i int, cell RunEnv) LongLivedResult {
		run := LongLivedConfig{Scenario: cfg.Scenario, N: cfg.N, BufferPackets: buffer, RunEnv: cell}
		run.Queue = arms[i]
		return RunLongLived(run)
	})
	return ECNResult{BufferPackets: buffer, Drop: res[0], Mark: res[1]}
}
