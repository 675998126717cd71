// Package profilecfg is the digestfield fixture for workload-profile
// configs: a run config carrying a workload source as pure data (an
// interface over digestable structs) is fine, while launch callbacks
// and progress channels — tempting additions to a traffic engine —
// silently vanish from the cache key.
package profilecfg

import "bufsim/internal/units"

// runEnv mirrors experiment.RunEnv; the marker works on an unexported
// type just the same.
type runEnv struct {
	Metrics *int
	Cache   *int
}

func (runEnv) DigestIgnore() {}

type curve []struct {
	T units.Duration
	V float64
}

// ProfileConfig mirrors the real profile run config: curves are slices
// of scalar structs and the source is an interface whose value digests
// by concrete type — every semantic field reaches the key.
type ProfileConfig struct {
	Seed       int64
	Rate       units.BitRate
	Arrival    curve
	Population curve
	Source     interface{ String() string }
	Buffers    []int

	runEnv // ignored by type: observer and cache plumbing
}

// BadEngineConfig collects the hazards a traffic engine invites: hooks
// observing flow launches and channels reporting progress are invisible
// to the digest, so two configs differing only there would share one
// cached result.
type BadEngineConfig struct {
	Seed     int64
	OnLaunch func(int64)   // want `BadEngineConfig\.OnLaunch \(kind func\) is silently skipped by the runcache digest`
	Progress chan float64  // want `BadEngineConfig\.Progress \(kind chan\) is silently skipped by the runcache digest`
	Stages   []func() bool // want `BadEngineConfig\.Stages\[\] reaches a func value`
	runEnv
}
