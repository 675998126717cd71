package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"time"

	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
)

// cacheSalt versions every cache key. Runs are deterministic functions
// of (config, seed), so cached results stay valid until the simulation
// semantics change — and any change that can alter a result (kernel,
// queue, TCP, workload, experiment lowering) MUST bump this salt, which
// invalidates the whole cache at once. See DESIGN.md, "Run cache".
const cacheSalt = "bufsim-results-v2"

// pointKey is the cache key for one computation of the given kind.
// Everything in cfg is semantic and part of the key except its RunEnv
// (see there) — the reflection completeness test in
// digest_coverage_test.go enforces that split.
func pointKey(kind string, cfg any) string {
	return runcache.Key(cacheSalt, kind, cfg)
}

// memoRun memoizes one deterministic computation in env's cache. With no
// cache it just computes. A live env (telemetry or audit attached, which
// require actually running the simulation) bypasses the lookup; the
// result is still stored, warming the cache.
//
// When verification sampling is on, a sampled hit is recomputed and
// compared byte-for-byte with the stored blob; a mismatch is recorded
// on the store and the freshly computed value wins.
func memoRun[T any](env RunEnv, kind string, cfg any, compute func() T) T {
	cache := env.Cache
	if cache == nil {
		return compute()
	}
	key := pointKey(kind, cfg)
	if !env.live() {
		if blob, ok := cache.Get(key); ok {
			var v T
			if err := json.Unmarshal(blob, &v); err == nil {
				if cache.ShouldVerify(key) {
					re := compute()
					reb, merr := json.Marshal(re)
					same := merr == nil && bytes.Equal(reb, blob)
					cache.RecordVerify(key, kind, same)
					if !same {
						return re
					}
				}
				return v
			}
		}
	}
	v := compute()
	// Best-effort: a marshal failure (NaN etc.) just leaves this entry
	// cold and the computed value is returned as usual.
	cache.Put(key, v)
	return v
}

// sweep is the fan-out every driver with more than one simulation goes
// through: point(i, cell) fills slot i of the returned slice, under the
// env the sweep derives for that cell (see RunEnv.cell). name labels the
// sweep in checkpoints and stats; cfg is the sweep-level config, whose
// digest identifies the checkpoint, so a resumed run with different
// parameters starts a fresh record instead of trusting stale progress;
// env is the sweep's own: cache and checkpoint policy, cancellation,
// worker bound, and the registry the stats go to.
func sweep[T any](name string, cfg any, env RunEnv, n int, point func(i int, cell RunEnv) T) []T {
	return sweepLabelled(name, cfg, env, nil, n, point)
}

// sweepLabelled is sweep for a driver that instruments its cells. With
// telemetry on, each cell runs under a child registry of its own (a
// Registry is not goroutine-safe), merged into env's under label(i) in
// cell order once the pool has drained, so the merged registry is the
// same at any worker count. A nil label leaves the cells uninstrumented.
//
// The points are dispatched across a worker pool; progress is
// checkpointed to the cache's sweep manifest after every completed
// point, and per-point timing and cache hit-rate stats go to env's
// registry once the queue drains. Cancellation is honoured between
// points (in-flight points finish): the points completed so far have
// written their slots (and their cache entries), the rest stay zero and
// the checkpoint stays open, so a rerun with resume replays the former
// as hits and only computes the remainder. Each point writes only its
// own slot, so results are bit-identical regardless of worker count —
// the orchestrator only observes.
func sweepLabelled[T any](name string, cfg any, env RunEnv, label func(i int) string, n int, point func(i int, cell RunEnv) T) []T {
	ctx := env.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var man *runcache.SweepManifest
	var before runcache.Stats
	if env.Cache != nil {
		man = env.Cache.Sweep(name, pointKey("sweep:"+name, cfg), n, env.Resume)
		before = env.Cache.Stats()
	}
	resumedPoints := man.DoneCount()
	start := time.Now()
	durations := make([]time.Duration, n)
	out := make([]T, n)
	var regs []*metrics.Registry
	if label != nil && env.Metrics != nil {
		regs = make([]*metrics.Registry, n)
	}

	workers := env.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				t0 := time.Now()
				var reg *metrics.Registry
				if regs != nil {
					reg = metrics.New()
					regs[i] = reg
				}
				out[i] = point(i, env.cell(reg))
				durations[i] = time.Since(t0)
				man.MarkDone(i)
			}
		}()
	}
	// Checked before each send: a select between a ready worker and a
	// done context picks either, and a cancelled sweep must start nothing.
	for i := 0; i < n && ctx.Err() == nil; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
		}
	}
	close(jobs)
	wg.Wait()

	for i, reg := range regs {
		if reg != nil {
			env.Metrics.Merge(label(i), reg)
		}
	}
	publishSweepStats(env, n, resumedPoints, durations, start, before)
	if ctx.Err() == nil {
		man.Finish()
	}
	return out
}

// publishSweepStats surfaces orchestrator observations through the
// existing metrics registry. It runs on one goroutine after the worker
// pool has drained (the Registry is not goroutine-safe).
func publishSweepStats(env RunEnv, n, resumed int, durations []time.Duration, start time.Time, before runcache.Stats) {
	reg := env.Metrics
	if reg == nil {
		return
	}
	var sum, max time.Duration
	completed := 0
	for _, d := range durations {
		if d > 0 {
			completed++
			sum += d
			if d > max {
				max = d
			}
		}
	}
	reg.Counter("sweep.points_total").Add(int64(n))
	reg.Counter("sweep.points_run").Add(int64(completed))
	reg.Counter("sweep.points_resumed").Add(int64(resumed))
	reg.Gauge("sweep.wall_seconds").Set(time.Since(start).Seconds())
	if completed > 0 {
		reg.Gauge("sweep.point_wall_seconds_mean").Set(sum.Seconds() / float64(completed))
		reg.Gauge("sweep.point_wall_seconds_max").SetMax(max.Seconds())
	}
	if env.Cache != nil {
		after := env.Cache.Stats()
		delta := runcache.Stats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses}
		reg.Counter("sweep.cache_hits").Add(delta.Hits)
		reg.Counter("sweep.cache_misses").Add(delta.Misses)
		reg.Gauge("sweep.cache_hit_rate").Set(delta.HitRate())
	}
}
