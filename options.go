package bufsim

import (
	"bufsim/internal/audit"
	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
)

// Registry collects simulator telemetry: counters, gauges and histograms
// published by the scheduler, the bottleneck queue and the TCP senders.
// Attach one to a run with WithMetrics, then Snapshot or WriteJSON it.
// Telemetry only observes — a run produces bit-identical packets whether
// or not a Registry is attached.
type Registry = metrics.Registry

// NewRegistry returns an empty telemetry registry for WithMetrics.
func NewRegistry() *Registry { return metrics.New() }

// Auditor collects conservation-law violations: every queue, link, TCP
// endpoint and the event clock cross-check their own accounting against
// independent shadow counters while the simulation runs. Attach one to a
// run with WithAudit, then inspect Count, Violations or Err. Auditing
// only observes — a run produces bit-identical results whether or not an
// Auditor is attached.
type Auditor = audit.Auditor

// Violation is one invariant failure recorded by an Auditor, stamped
// with the simulated time at which it was detected.
type Violation = audit.Violation

// NewAuditor returns an empty auditor for WithAudit. OnViolation (see
// audit.OnViolation) may be passed to observe failures as they happen;
// by default they accumulate for inspection after the run.
func NewAuditor(opts ...audit.Option) *Auditor { return audit.New(opts...) }

// Cache is a content-addressed store of simulation results, keyed by a
// canonical digest of the run's full configuration. Attach one with
// WithCacheStore: a run whose exact configuration has been simulated
// before returns the stored result instead of simulating again; a cold
// run simulates and stores. The cache only observes — cached and fresh
// results are bit-identical — and entries never expire: they are
// invalidated wholesale when the simulator's digest salt changes (see
// internal/runcache).
type Cache = runcache.Store

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string) (*Cache, error) { return runcache.Open(dir) }

// Option attaches an observer to a Run or sets how it executes. No
// option can change what a run computes.
type Option func(*experiment.RunEnv)

// WithParallelism bounds how many independent simulations run at once in
// the traffic kinds that fan out over several (Replicated). Zero or
// negative means the machine's parallelism. Every simulation owns its
// scheduler and RNG streams, so results are bit-identical at any
// setting; only wall-clock time changes. A single simulation is always
// one goroutine.
func WithParallelism(n int) Option {
	return func(e *experiment.RunEnv) { e.Parallelism = n }
}

// WithMetrics attaches a telemetry registry to the run. After the run
// returns, reg holds the scheduler, queue and TCP instruments
// (reg.WriteJSON dumps them). Telemetry never perturbs the simulation:
// the same seed yields identical packets with or without it.
func WithMetrics(reg *Registry) Option {
	return func(e *experiment.RunEnv) { e.Metrics = reg }
}

// WithAudit runs the simulation under the conservation-law checker: every
// queue, link, TCP endpoint and the event clock verify their accounting
// invariants as events execute, recording violations into aud. A clean
// run leaves aud.Count() at zero. Auditing never perturbs the
// simulation: the same seed yields identical results with or without it.
// The same Auditor may be shared by concurrent runs (Replicated); it is
// concurrency-safe.
func WithAudit(aud *Auditor) Option {
	return func(e *experiment.RunEnv) { e.Audit = aud }
}

// WithCacheStore memoizes the run in c: if this exact configuration —
// every field and the seed, not the options — has been simulated into c
// before, the stored result is returned without simulating. Open c with
// OpenCache; c.SetVerifySample makes a share of hits recompute and
// compare.
//
// Combining a cache with WithMetrics or WithAudit always simulates
// (telemetry and audit observe the simulation itself), but still stores
// the result for later cache hits.
func WithCacheStore(c *Cache) Option {
	return func(e *experiment.RunEnv) { e.Cache = c }
}
