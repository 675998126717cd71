package experiment

import (
	"fmt"
	"math"
)

// sawtoothCoV is the coefficient of variation of a single idealized Reno
// sawtooth (uniform between Wmax/2 and Wmax): sigma/mean = (1/sqrt(12)) *
// (Wmax/2) / (3Wmax/4) = 1/sqrt(27).
const sawtoothCoV = 0.19245008972987526 // 1/sqrt(27)

// syncIndex is the synchronization index of n flows whose aggregate
// window has standard deviation sd about mean: its coefficient of
// variation over the fully-desynchronized CLT prediction, sawtoothCoV /
// sqrt(n). It is 0 unless mean is positive.
func syncIndex(sd, mean float64, n int) float64 {
	if !(mean > 0) {
		return 0
	}
	return (sd / mean) / (sawtoothCoV / math.Sqrt(float64(n)))
}

// SyncConfig studies the §3 synchronization claim: with few flows the
// sawtooths march in lockstep and the aggregate window swings like one
// giant flow; above a few hundred flows they desynchronize and the
// aggregate converges to the CLT's sqrt(n)-narrow Gaussian.
type SyncConfig struct {
	// Scenario: the path defaults to Fig. 6's (windowDistPath).
	Scenario

	Ns           []int
	BufferFactor float64 // multiple of RTTxC/sqrt(n)

	// RunEnv: Audit and Cache reach the underlying runs; the flow counts
	// are a sweep.
	RunEnv
}

func (c SyncConfig) withDefaults() SyncConfig {
	if len(c.Ns) == 0 {
		c.Ns = []int{10, 50, 100, 250, 500}
	}
	c.Path = c.Path.or(windowDistPath)
	if c.BufferFactor == 0 {
		c.BufferFactor = 1.5
	}
	return c
}

// SyncPoint is one n's synchronization measurement.
type SyncPoint struct {
	N int
	// SyncIndex is the measured aggregate-window coefficient of
	// variation divided by the fully-desynchronized CLT prediction
	// (sawtoothCoV / sqrt(n)). 1 means independent flows; sqrt(n) means
	// perfect lockstep.
	SyncIndex float64
	// KS is the normality distance of the aggregate window.
	KS float64
	// StdDev and Mean describe the aggregate window process.
	StdDev, Mean float64
}

// RunSyncAblation measures the synchronization index across flow counts.
func RunSyncAblation(cfg SyncConfig) SyncTable {
	cfg = cfg.withDefaults()
	label := func(i int) string { return fmt.Sprintf("n=%d", cfg.Ns[i]) }
	return sweep("sync", cfg.RunEnv, label, len(cfg.Ns), func(i int, cell RunEnv) SyncPoint {
		n := cfg.Ns[i]
		run := WindowDistConfig{Scenario: cfg.Scenario, N: n, BufferFactor: cfg.BufferFactor, RunEnv: cell}
		run.Seed += int64(n)
		r := RunWindowDist(run)
		return SyncPoint{
			N:         n,
			SyncIndex: syncIndex(r.StdDev, r.Mean, n),
			KS:        r.KS,
			StdDev:    r.StdDev,
			Mean:      r.Mean,
		}
	})
}
