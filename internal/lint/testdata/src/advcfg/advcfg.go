// Package advcfg is the digestfield fixture for adversarial-sweep
// configs: a grid point keyed by scalar pattern knobs digests cleanly,
// while per-burst callbacks and drop-report channels — tempting
// additions to an attack harness — silently vanish from the cache key.
package advcfg

import "bufsim/internal/units"

// RunEnv mirrors experiment.RunEnv.
type RunEnv struct {
	Audit *int
	Cache *int
}

// DigestIgnore marks RunEnv as invisible to runcache.Key.
func (RunEnv) DigestIgnore() {}

// PatternConfig mirrors the real adversarial point config: only scalar
// semantic knobs beside the embedded env, so every field reaches the
// key.
type PatternConfig struct {
	Seed       int64
	Pattern    int
	N          int
	Rate       units.BitRate
	RTT        units.Duration
	PeakFactor float64
	Factors    []float64

	RunEnv // ignored by type: observer and cache plumbing
}

// BadHarnessConfig collects the hazards an attack harness invites:
// hooks observing each burst and channels streaming drop events are
// invisible to the digest, so two configs differing only there would
// share one cached result.
type BadHarnessConfig struct {
	Seed    int64
	OnBurst func(int)     // want `BadHarnessConfig\.OnBurst \(kind func\) is silently skipped by the runcache digest`
	Drops   chan int64    // want `BadHarnessConfig\.Drops \(kind chan\) is silently skipped by the runcache digest`
	Phases  []func() bool // want `BadHarnessConfig\.Phases\[\] reaches a func value`
	RunEnv
}
