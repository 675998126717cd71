// Package metrics is the simulator's telemetry layer: counters, gauges
// and fixed-bucket histograms that the sim kernel, queues, links and TCP
// senders report into. (A sampled trajectory is a trace.Series.)
//
// Two properties are non-negotiable and shape the whole design:
//
//   - Observation, never perturbation. Instruments hold plain values; they
//     never schedule events, draw random numbers, or touch simulation
//     state, so a run with metrics enabled schedules, drops and ACKs
//     exactly the same packets as a run without.
//
//   - Near-zero cost when disabled. Every constructor and every instrument
//     method is safe on a nil receiver and does nothing, so call sites
//     stay unconditional ("c.Inc()") and the disabled path costs one nil
//     check. Components accept a *Registry and simply pass it along; a nil
//     registry hands out nil instruments.
//
// A Registry is confined to one simulation and is NOT goroutine-safe; the
// sweep drivers give each parallel run its own registry and Merge them
// deterministically afterwards. Expensive-to-maintain values (heap depth,
// queue occupancy, aggregated sender counters) are produced by collector
// callbacks that run only at snapshot time, keeping them off the hot path
// entirely.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Counter is a monotonically increasing int64. A nil *Counter is a valid
// no-op instrument.
type Counter struct{ v int64 }

// Add increases the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter value; collectors use it to publish counters
// that are maintained elsewhere (e.g. queue.Stats) without hot-path cost.
func (c *Counter) Set(v int64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous float64 measurement. A nil *Gauge is a valid
// no-op instrument.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// SetMax records v only if it exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds; values above the last bound land in an overflow bucket.
// Buckets are fixed at creation so Observe never allocates. A nil
// *Histogram is a valid no-op instrument.
type Histogram struct {
	bounds   []float64 // ascending upper bounds (inclusive)
	counts   []int64   // len(bounds)+1; last bucket is overflow
	sum      float64
	n        int64
	min, max float64
}

// NewHistogram returns a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the mean observation (0 with no observations or on nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 <= q <= 1)
// from the bucket counts: the bound of the bucket where the quantile
// falls. The overflow bucket reports the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	target := int64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// ExpBuckets returns n ascending bounds starting at start, each factor
// times the previous — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("metrics: bad ExpBuckets(%g, %g, %d)", start, factor, n))
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Registry is a named collection of instruments plus collector callbacks
// that populate snapshot-time values. The zero value is not usable; call
// New. All methods are safe on a nil *Registry and return nil instruments,
// which is how "metrics disabled" is expressed.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func()
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed (nil on a nil
// registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// if needed (nil on a nil registry). Bounds are fixed by whoever creates
// the histogram first.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// OnCollect registers a callback run at snapshot time; components use it
// to publish values that would be too expensive (or pointless) to maintain
// per event.
func (r *Registry) OnCollect(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// Collect runs the registered collectors.
func (r *Registry) Collect() {
	if r == nil {
		return
	}
	for _, fn := range r.collectors {
		fn()
	}
}

// Seal runs the collectors one last time and drops them: the instruments
// keep what they published, and the registry stops holding on to what the
// collectors read. A sweep seals each cell's registry when the cell is
// done, so its finished simulations can be freed before the merge.
func (r *Registry) Seal() {
	if r == nil {
		return
	}
	r.Collect()
	r.collectors = nil
}

// BucketSnapshot is one histogram bucket in a snapshot: the count of
// observations at or below UpperBound (and above the previous bound).
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// HistogramSnapshot is a histogram's exported state.
type HistogramSnapshot struct {
	Count    int64            `json:"count"`
	Sum      float64          `json:"sum"`
	Min      float64          `json:"min"`
	Max      float64          `json:"max"`
	Overflow int64            `json:"overflow"`
	Buckets  []BucketSnapshot `json:"buckets"`
}

// Snapshot is the full registry state at one instant. Map keys make the
// JSON encoding deterministic (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot runs the collectors and exports every instrument. Safe on a nil
// registry (returns an empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{}
	if r == nil {
		return snap
	}
	r.Collect()
	if len(r.counters) > 0 {
		snap.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			snap.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			hs := HistogramSnapshot{
				Count: h.n, Sum: h.sum, Min: h.min, Max: h.max,
				Overflow: h.counts[len(h.counts)-1],
				Buckets:  make([]BucketSnapshot, len(h.bounds)),
			}
			for i, b := range h.bounds {
				hs.Buckets[i] = BucketSnapshot{UpperBound: b, Count: h.counts[i]}
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// WriteJSON writes the snapshot as indented JSON. The output is
// deterministic: map keys are sorted by the encoder.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Merge folds child's instruments into r under "prefix/name". Counters and
// histogram buckets add; gauges overwrite.
// Child collectors run once (via Snapshot) and are not carried over. Sweep
// drivers call Merge in deterministic (index) order after their parallel
// phase so the combined registry is identical at any worker count.
func (r *Registry) Merge(prefix string, child *Registry) {
	if r == nil || child == nil {
		return
	}
	child.Collect()
	for name, c := range child.counters {
		//lint:ignore maporder each key feeds its own instrument, so the per-key merge commutes
		r.Counter(prefix + "/" + name).Add(c.Value())
	}
	for name, g := range child.gauges {
		//lint:ignore maporder each key feeds its own instrument, so the per-key merge commutes
		r.Gauge(prefix + "/" + name).Set(g.Value())
	}
	for name, h := range child.hists {
		dst := r.Histogram(prefix+"/"+name, h.bounds)
		if len(dst.counts) != len(h.counts) {
			panic(fmt.Sprintf("metrics: merge of %q with mismatched buckets", name))
		}
		for i, c := range h.counts {
			dst.counts[i] += c
		}
		if h.n > 0 {
			if dst.n == 0 || h.min < dst.min {
				dst.min = h.min
			}
			if dst.n == 0 || h.max > dst.max {
				dst.max = h.max
			}
			dst.sum += h.sum
			dst.n += h.n
		}
	}
}
