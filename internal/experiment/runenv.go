package experiment

import (
	"context"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
)

// RunEnv is everything about a run that is not the run: who watches it
// and how it is executed. Every config embeds it, so the seven knobs are
// declared, documented and kept out of the cache key in this one place.
//
// None of the fields can change a result — that is the observer
// contract the pinned digests, the golden tables and the sharded
// equivalence harness enforce — which is what entitles the type to its
// DigestIgnore marker: runcache.Key skips every struct field of type
// RunEnv, at any depth, whatever the field is called. A field that does
// change what a run computes must never be added here.
//
// Metrics, Audit, Cache and Shards are read by the single-simulation
// drivers. Resume, Ctx and Parallelism are read only by the drivers that
// fan out over many simulations (everything built on sweep); a single
// run ignores them. A fan-out driver's cells run under a derived env
// (see cell), not its own.
type RunEnv struct {
	// Metrics, when non-nil, receives the run's telemetry (scheduler,
	// bottleneck queue and link, TCP aggregates). A fan-out driver
	// publishes its sweep statistics here and, where it instruments
	// cells at all, merges one child registry per cell under the cell's
	// label. A Registry is not goroutine-safe, so no two concurrent
	// simulations ever share one.
	Metrics *metrics.Registry

	// Audit, when non-nil, runs every simulation under the
	// conservation-law checker (see internal/audit): kernel, queues,
	// links and TCP endpoints report invariant violations into it. The
	// Auditor is concurrency-safe and shared across a sweep's workers.
	Audit *audit.Auditor

	// Cache, when non-nil, memoizes each simulation's result in the
	// content-addressed run cache: a repeat with the same semantic
	// config replays the stored result instead of re-simulating. Runs
	// with Metrics or Audit attached always simulate (the hooks need a
	// live run) but still warm the cache.
	Cache *runcache.Store

	// Resume, with Cache set, continues the checkpoint an interrupted
	// sweep left behind instead of starting a fresh record.
	Resume bool

	// Ctx, when non-nil, cancels a sweep between points (in-flight
	// points finish; their cache entries make the rerun cheap).
	Ctx context.Context

	// Parallelism bounds a sweep's worker goroutines; 0 means the
	// machine's parallelism. One simulation is always one goroutine.
	Parallelism int

	// Shards requests the sharded kernel with this many event shards
	// (see topology.Config.Shards); 0 or 1 is the sequential kernel.
	// Generator-driven scenarios (short flows, mixes, traces, profiles)
	// cap the effective count at two — see sharedGeneratorShards.
	Shards int
}

// DigestIgnore marks RunEnv as invisible to runcache.Key.
func (RunEnv) DigestIgnore() {}

// live reports whether an observer is attached that needs the
// simulation to actually run, so a cache hit must not short-circuit it.
func (e RunEnv) live() bool { return e.Metrics != nil || e.Audit != nil }

// cell derives the env one simulation of a fan-out runs under: the
// shared Auditor and Cache plus the cell's own registry (nil for none).
// Sweep-level policy stays behind, and so does Shards: a sweep does not
// shard its cells unless its driver says so (the replicated run, Fig. 9's
// pair and the flash crowd do).
func (e RunEnv) cell(reg *metrics.Registry) RunEnv {
	return RunEnv{Metrics: reg, Audit: e.Audit, Cache: e.Cache}
}
