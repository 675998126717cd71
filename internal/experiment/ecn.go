package experiment

import (
	"bufsim/internal/units"
)

// ECNConfig drives the ECN ablation: RED that marks (with ECN-capable
// senders) versus RED that drops, at the same sqrt(n)-rule buffer. Marking
// delivers the congestion signal without losing packets, so the same tiny
// buffer should yield equal-or-better utilization with near-zero loss —
// an AQM-era postscript to the paper's drop-tail result.
type ECNConfig struct {
	Seed int64

	N int
	// Path defaults to the long-lived scenario at OC3.
	Path
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
	arms := sweep("ecn", cfg, cfg.RunEnv, 2, func(i int, cell RunEnv) LongLivedResult {
		return RunLongLived(LongLivedConfig{
			Seed: cfg.Seed, N: cfg.N, Path: cfg.Path,
			BufferPackets: buffer,
			UseRED:        true,
			ECN:           i == 1,
			RunEnv:        cell,
		})
	})
	return ECNResult{BufferPackets: buffer, Drop: arms[0], Mark: arms[1]}
}
