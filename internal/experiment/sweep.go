package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
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
const cacheSalt = "bufsim-results-v10"

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
// A stored blob is a hit only if it decodes into a T whose encoding is
// the blob byte for byte: blobs are written by json.Marshal of the same
// type, so anything else — {}, null, another kind's result — is not this
// computation's result. Such a blob counts as a miss and is recomputed
// and overwritten.
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
			if v, ok := decodeExactly[T](blob); ok {
				if cache.ShouldVerify(key) {
					re := compute()
					same := encodesTo(re, blob)
					cache.RecordVerify(key, kind, same)
					if !same {
						return re
					}
				}
				return v
			}
			cache.Reject()
		}
	}
	v := compute()
	// Best-effort: a marshal failure (NaN etc.) just leaves this entry
	// cold and the computed value is returned as usual.
	cache.Put(key, v)
	return v
}

// decodeExactly decodes blob into a T, reporting whether the T encodes
// back to blob byte for byte.
func decodeExactly[T any](blob []byte) (T, bool) {
	var v T
	return v, json.Unmarshal(blob, &v) == nil && encodesTo(v, blob)
}

// encodesTo reports whether v's JSON is blob byte for byte.
func encodesTo(v any, blob []byte) bool {
	b, err := json.Marshal(v)
	return err == nil && bytes.Equal(b, blob)
}

// sweep is the fan-out every driver with more than one simulation goes
// through: point(i, cell) fills slot i of the returned slice, under the
// env the sweep derives for that cell (see RunEnv.cell). name labels the
// sweep and label(i) its point i, in a panic and in telemetry; env is the
// sweep's own: cache, cancellation, worker bound, and the registry the
// stats go to. With telemetry on, each cell runs under a child registry
// of its own (a Registry is not goroutine-safe), merged into env's under
// label(i) in cell order once the pool has drained, so the merged
// registry is the same at any worker count. Labels must be distinct:
// cells merged under one label add up.
//
// The points are dispatched across a worker pool, and per-point timing
// and cache hit-rate stats go to env's registry once the queue drains.
// Cancellation is honoured between points (in-flight points finish): the
// points completed so far have written their slots and their cache
// entries, the rest stay zero, so rerunning the sweep on the same cache
// replays the former as hits and only computes the remainder. A point
// that panics stops the dispatch the same way; once the pool has
// drained, the panic is re-raised on the caller's goroutine naming the
// sweep, the point and its label, with the worker's stack. Each point
// writes only its own slot, so results are bit-identical regardless of
// worker count — the orchestrator only observes.
func sweep[T any](name string, env RunEnv, label func(i int) string, n int, point func(i int, cell RunEnv) T) []T {
	parent := env.Ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, stop := context.WithCancel(parent)
	defer stop()
	var before runcache.Stats
	if env.Cache != nil {
		before = env.Cache.Stats()
	}
	start := startStopwatch()
	durations := make([]time.Duration, n)
	out := make([]T, n)
	var regs []*metrics.Registry
	if env.Metrics != nil {
		regs = make([]*metrics.Registry, n)
	}

	var crashOnce sync.Once
	var crash string
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				crashOnce.Do(func() {
					crash = fmt.Sprintf("experiment: sweep %s: point %d (%s) panicked: %v\n\n%s", name, i, label(i), v, debug.Stack())
				})
				stop()
			}
		}()
		t0 := startStopwatch()
		var reg *metrics.Registry
		if regs != nil {
			reg = metrics.New()
			regs[i] = reg
		}
		out[i] = point(i, env.cell(reg))
		reg.Seal()
		durations[i] = t0.elapsed()
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
				run(i)
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
	if crash != "" {
		panic(crash)
	}

	for i, reg := range regs {
		if reg != nil {
			env.Metrics.Merge(label(i), reg)
		}
	}
	publishSweepStats(env, n, durations, start, before)
	return out
}

// publishSweepStats surfaces orchestrator observations through the
// existing metrics registry. It runs on one goroutine after the worker
// pool has drained (the Registry is not goroutine-safe).
func publishSweepStats(env RunEnv, n int, durations []time.Duration, start stopwatch, before runcache.Stats) {
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
	reg.Gauge("sweep.wall_seconds").Set(start.elapsed().Seconds())
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
