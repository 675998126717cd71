package experiment

import "math"

// sawtoothCoV is the coefficient of variation of a single idealized Reno
// sawtooth (uniform between Wmax/2 and Wmax): sigma/mean = (1/sqrt(12)) *
// (Wmax/2) / (3Wmax/4) = 1/sqrt(27).
const sawtoothCoV = 0.19245008972987526 // 1/sqrt(27)

// SyncConfig studies the §3 synchronization claim: with few flows the
// sawtooths march in lockstep and the aggregate window swings like one
// giant flow; above a few hundred flows they desynchronize and the
// aggregate converges to the CLT's sqrt(n)-narrow Gaussian.
type SyncConfig struct {
	Seed int64

	Ns []int
	// Path defaults to Fig. 6's (windowDistPath).
	Path
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
	return sweep("sync", cfg, cfg.RunEnv, len(cfg.Ns), func(i int, cell RunEnv) SyncPoint {
		n := cfg.Ns[i]
		r := RunWindowDist(WindowDistConfig{
			Seed: cfg.Seed + int64(n), N: n, Path: cfg.Path,
			BufferFactor: cfg.BufferFactor,
			RunEnv:       cell,
		})
		cov := 0.0
		if r.Mean > 0 {
			cov = r.StdDev / r.Mean
		}
		cltCoV := sawtoothCoV / math.Sqrt(float64(n))
		return SyncPoint{
			N:         n,
			SyncIndex: cov / cltCoV,
			KS:        r.KS,
			StdDev:    r.StdDev,
			Mean:      r.Mean,
		}
	})
}
