package experiment

import (
	"fmt"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// VariantConfig drives the congestion-control ablation: does the sqrt(n)
// rule depend on the paper's choice of TCP Reno? The paper's analysis
// only assumes AIMD sawtooths, so Tahoe/NewReno/SACK should all track the
// rule — with SACK expected to help precisely where Reno's multi-loss
// fragility hurts (small n, small buffers).
type VariantConfig struct {
	// Scenario: the path defaults to the long-lived scenario at OC3;
	// Variants overrides Sender.Variant.
	Scenario

	N            int
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
	label := func(i int) string { return fmt.Sprintf("variant=%s", cfg.Variants[i]) }
	return sweep("variants", cfg.RunEnv, label, len(cfg.Variants), func(i int, cell RunEnv) VariantPoint {
		run := LongLivedConfig{
			Scenario: cfg.Scenario, N: cfg.N,
			BufferPackets: cfg.sqrtRuleTimes(cfg.BufferFactor, cfg.N),
			RunEnv:        cell,
		}
		run.Sender.Variant = cfg.Variants[i]
		r := RunLongLived(run)
		return VariantPoint{
			Variant:     cfg.Variants[i],
			Utilization: r.Utilization,
			LossRate:    r.LossRate,
			Timeouts:    r.Timeouts,
			Retransmit:  r.RetransmitFraction,
		}
	})
}
