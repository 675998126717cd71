package experiment

import (
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// VariantConfig drives the congestion-control ablation: does the sqrt(n)
// rule depend on the paper's choice of TCP Reno? The paper's analysis
// only assumes AIMD sawtooths, so Tahoe/NewReno/SACK should all track the
// rule — with SACK expected to help precisely where Reno's multi-loss
// fragility hurts (small n, small buffers).
type VariantConfig struct {
	Seed int64

	N int
	// Path defaults to the long-lived scenario at OC3.
	Path
	BufferFactor float64 // multiple of RTTxC/sqrt(n)

	Variants []tcp.Variant

	// RunEnv: Audit and Cache reach every variant's run; the variants are
	// a sweep.
	RunEnv
}

func (c VariantConfig) withDefaults() VariantConfig {
	if c.N == 0 {
		c.N = 100
	}
	c.Path = c.Path.or(longLivedPath.at(units.OC3))
	if c.BufferFactor == 0 {
		c.BufferFactor = 1
	}
	if len(c.Variants) == 0 {
		c.Variants = []tcp.Variant{tcp.Reno, tcp.NewReno, tcp.Sack, tcp.Tahoe}
	}
	return c
}

// VariantPoint is one congestion-control variant's outcome.
type VariantPoint struct {
	Variant     tcp.Variant
	Utilization float64
	LossRate    float64
	Timeouts    int64
	Retransmit  float64
}

// RunVariantAblation measures each variant on the same scenario.
func RunVariantAblation(cfg VariantConfig) VariantTable {
	cfg = cfg.withDefaults()
	return sweep("variants", cfg, cfg.RunEnv, len(cfg.Variants), func(i int, cell RunEnv) VariantPoint {
		r := RunLongLived(LongLivedConfig{
			Seed: cfg.Seed, N: cfg.N, Path: cfg.Path,
			BufferPackets: cfg.sqrtRuleTimes(cfg.BufferFactor, cfg.N),
			Variant:       cfg.Variants[i],
			RunEnv:        cell,
		})
		return VariantPoint{
			Variant:     cfg.Variants[i],
			Utilization: r.Utilization,
			LossRate:    r.LossRate,
			Timeouts:    r.Timeouts,
			Retransmit:  r.RetransmitFraction,
		}
	})
}
