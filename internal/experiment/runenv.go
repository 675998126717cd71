package experiment

import (
	"context"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
)

// RunEnv is everything about a run that is not the run: who watches it
// and how it is executed. Every config embeds it, so the five knobs are
// declared, documented and kept out of the cache key in this one place.
//
// None of the fields can change a result — that is the observer
// contract the pinned digests and the golden tables enforce — which is what entitles the type to its
// DigestIgnore marker: runcache.Key skips every struct field of type
// RunEnv, at any depth, whatever the field is called. A field that does
// change what a run computes must never be added here.
//
// Metrics, Audit and Cache are read by the single-simulation
// drivers. Ctx and Parallelism are read only by the drivers that
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

	// Ctx, when non-nil, cancels a sweep between points (in-flight
	// points finish; their cache entries make the rerun cheap — the
	// cache is the only checkpoint there is).
	Ctx context.Context

	// Parallelism bounds a sweep's worker goroutines; 0 means the
	// machine's parallelism. One simulation is always one goroutine.
	Parallelism int
}

// DigestIgnore marks RunEnv as invisible to runcache.Key.
func (RunEnv) DigestIgnore() {}

// live reports whether an observer is attached that needs the
// simulation to actually run, so a cache hit must not short-circuit it.
func (e RunEnv) live() bool { return e.Metrics != nil || e.Audit != nil }

// cell derives the env one simulation of a fan-out runs under: the
// shared Auditor and Cache plus the cell's own registry (nil for none).
// Sweep-level policy stays behind.
func (e RunEnv) cell(reg *metrics.Registry) RunEnv {
	return RunEnv{Metrics: reg, Audit: e.Audit, Cache: e.Cache}
}

// arm runs one of the several simulations of a sweep cell under a
// registry of its own, merged into the cell's under name once it is done.
// Run on the cell's registry itself, each simulation's collectors would
// overwrite the last one's counters while its histograms added up. With
// no registry it is run(cell).
func arm[T any](cell RunEnv, name string, run func(RunEnv) T) T {
	if cell.Metrics == nil {
		return run(cell)
	}
	env := cell
	env.Metrics = metrics.New()
	out := run(env)
	env.Metrics.Seal()
	cell.Metrics.Merge(name, env.Metrics)
	return out
}
