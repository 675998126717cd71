package bufsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bufsim/internal/tcp"
)

// kind wraps one traffic kind for the matrix, so kinds with different
// result types share one table.
func kind[R Result](t Traffic[R]) func(Scenario, ...Option) (any, error) {
	return func(s Scenario, opts ...Option) (any, error) { return Run(s, t, opts...) }
}

// matrixLink is the tiny bottleneck every matrix scenario runs on.
var matrixLink = Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}

// matrixKinds is every traffic kind on a deliberately tiny scenario, so
// the kinds x switches x observers matrix stays cheap enough for the
// ordinary test run. A row is named after the entry point its kind
// replaced, and the matrix's columns after the option each Scenario
// field or observer replaced, so the matrix reads the same across that
// change.
var matrixKinds = []struct {
	name string
	s    Scenario
	run  func(Scenario, ...Option) (any, error)
	// fixedTransport kinds fix their own queue and senders: setting
	// Scenario.RED or Scenario.Sender must be refused.
	fixedTransport bool
}{
	{"Simulate", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 20, Warmup: Second, Measure: 2 * Second},
		kind(LongLived{Flows: 8, RTTSpread: 20 * Millisecond}), false},
	{"SimulateReplicated", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 20, Warmup: Second, Measure: 2 * Second},
		kind(Replicated{LongLived{Flows: 8, RTTSpread: 20 * Millisecond}, 2}), false},
	{"SimulateSingleFlow", Scenario{Seed: 1, Link: matrixLink},
		kind(SingleFlow{BufferFactor: 1}), false},
	{"SimulateShortFlows", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 30, Warmup: Second, Measure: 2 * Second},
		kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 43)}), false},
	{"SimulateMix", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 30, Warmup: Second, Measure: 2 * Second},
		kind(Mix{LongFlows: 4, ShortLoad: 0.2, RTTSpread: 20 * Millisecond}), false},
	{"SimulateProfile", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 30, Warmup: Second, Measure: 3 * Second},
		kind(Generated{Workload: matrixProfileWorkload(), Stations: 10, Drain: 10 * Second}), false},
	{"SimulateTrace", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 30},
		kind(Trace{Flows: matrixTrace()}), false},
	{"SimulateAdversary", Scenario{Seed: 1, Link: matrixLink, BufferPackets: 20, Warmup: Second, Measure: 2 * Second},
		kind(Adversary{Pattern: AdversarySyncAIMD, Flows: 4}), true},
}

// matrixProfileWorkload is the tiny time-varying workload: the
// flash-crowd shape compressed 12x so the spike lands inside the short
// measurement window.
func matrixProfileWorkload() Workload {
	p, err := FlashCrowdProfile.Profile().Compress(12)
	if err != nil {
		panic(err)
	}
	w, err := ProfileWorkload(p.ScaleTo(20, 4), GeometricSize(10), 16)
	if err != nil {
		panic(err)
	}
	return w
}

// matrixTrace is the tiny recorded trace: 40 flows arriving faster than
// the link drains them, so the queue stands long enough for RED's
// averaged queue to reach its drop threshold.
func matrixTrace() []TraceFlow {
	flows := make([]TraceFlow, 40)
	for i := range flows {
		flows[i] = TraceFlow{Start: Duration(i) * 20 * Millisecond, Size: 40}
	}
	return flows
}

// TestOptionsMatrix crosses every traffic kind with every Scenario switch
// and every observer: a switch must run (and a kind with a fixed
// transport must refuse it), observers must leave the result
// bit-identical, and a cached rerun must hit and replay it exactly.
func TestOptionsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, k := range matrixKinds {
		t.Run(k.name, func(t *testing.T) { checkKind(t, k.s, k.run, k.fixedTransport) })
	}
}

// checkKind is one row of the matrix; it returns the kind's plain result.
func checkKind(t *testing.T, s Scenario, run func(Scenario, ...Option) (any, error), fixedTransport bool) any {
	base, err := run(s)
	if err != nil {
		t.Fatal(err)
	}
	var variants []func(*Scenario)
	for _, v := range tcp.Variants()[1:] {
		variants = append(variants, func(s *Scenario) { s.Sender.Variant = v })
	}
	switches := []struct {
		name  string
		edits []func(*Scenario)
	}{
		{"WithRED", []func(*Scenario){func(s *Scenario) { s.RED = true }}},
		{"WithPacing", []func(*Scenario){func(s *Scenario) { s.Sender.Paced = true }}},
		{"WithDelayedACK", []func(*Scenario){func(s *Scenario) { s.Sender.DelayedAck = true }}},
		{"WithCongestionControl", variants},
	}
	for _, sw := range switches {
		t.Run(sw.name, func(t *testing.T) {
			changed := false
			for _, edit := range sw.edits {
				switched := s
				edit(&switched)
				got, err := run(switched)
				if fixedTransport && (err == nil || !strings.Contains(err.Error(), "does not read Scenario.")) {
					t.Errorf("%+v: error %v, want the switch refused", switched.Sender, err)
				}
				if !fixedTransport && err != nil {
					t.Errorf("%+v: %v", switched.Sender, err)
				}
				changed = changed || (err == nil && !reflect.DeepEqual(got, base))
			}
			// A switch the kind reads must reach the run. Loss-based
			// variants differ only after a loss, so of the variants one
			// changing the result is enough.
			if !fixedTransport && !changed {
				t.Error("the switch left the result equal to the plain run's")
			}
		})
	}
	observe := func(t *testing.T, opt Option) {
		if got, err := run(s, opt); err != nil || !reflect.DeepEqual(got, base) {
			t.Errorf("observer perturbed the result (%v):\ngot  %+v\nbase %+v", err, got, base)
		}
	}
	t.Run("WithMetrics", func(t *testing.T) { observe(t, WithMetrics(NewRegistry())) })
	t.Run("WithAudit", func(t *testing.T) {
		aud := NewAuditor()
		observe(t, WithAudit(aud))
		if aud.Count() > 0 {
			t.Errorf("audit violations:\n%s", aud)
		}
	})
	t.Run("WithCache", func(t *testing.T) {
		cache, _ := tempCache(t)
		observe(t, WithCacheStore(cache))
		before := cache.Stats()
		observe(t, WithCacheStore(cache))
		if cache.Stats().Hits == before.Hits {
			t.Error("identical rerun missed the cache")
		}
	})
	return base
}

// TestWithWorkloadMatrix runs every workload family as Generated traffic
// through the same matrix, and requires different workloads over the
// same scenario to produce different results: the workload really
// drives the simulation and the cache key.
func TestWithWorkloadMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	s := Scenario{Seed: 2, Link: matrixLink, BufferPackets: 30, Warmup: Second, Measure: 3 * Second}
	workloads := []struct {
		name string
		w    Workload
	}{
		{"poisson", PoissonWorkload(0.5, FixedSize(14), 16)},
		{"sessions", SessionWorkload(6, GeometricSize(10), 200*Millisecond, 16)},
		{"trace", TraceWorkload([]TraceFlow{
			{Start: 0, Size: 10}, {Start: 500 * Millisecond, Size: 30}, {Start: 1 * Second, Size: 5},
		}, 16)},
		{"profile", matrixProfileWorkload()},
	}
	seen := make(map[ProfileResult]string)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res := checkKind(t, s, kind(Generated{Workload: wl.w, Stations: 10, Drain: 10 * Second}), false).(ProfileResult)
			if res.Generated == 0 {
				t.Fatal("workload generated no flows")
			}
			if other, dup := seen[res]; dup {
				t.Errorf("workloads %q and %q produced identical results", wl.name, other)
			}
			seen[res] = wl.name
		})
	}
}

// TestVariantSwitchMatrix runs every registered congestion-control
// variant under every combination of the behavioural switches (pacing,
// delayed ACK, RED), each under the conservation-law auditor and each
// cached then replayed: the pluggable congestion control must compose
// with the whole Scenario, not just run standalone.
func TestVariantSwitchMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulation runs")
	}
	cache, _ := tempCache(t)
	for _, v := range tcp.Variants() {
		for mask := 0; mask < 8; mask++ {
			s := Scenario{
				Seed: 3, Link: matrixLink, BufferPackets: 25, Warmup: Second, Measure: 2 * Second,
				RED:    mask&4 != 0,
				Sender: Sender{Variant: v, Paced: mask&1 != 0, DelayedAck: mask&2 != 0},
			}
			label := fmt.Sprintf("%s/paced=%v,delack=%v,red=%v", v, s.Sender.Paced, s.Sender.DelayedAck, s.RED)
			t.Run(label, func(t *testing.T) {
				flows := LongLived{Flows: 6, RTTSpread: 20 * Millisecond}
				aud := NewAuditor()
				base := run(t, s, flows, WithAudit(aud))
				if aud.Count() > 0 {
					t.Fatalf("audit violations:\n%s", aud)
				}
				if base.Utilization <= 0 || base.Utilization > 1.0001 {
					t.Errorf("utilization = %v", base.Utilization)
				}
				if cold := run(t, s, flows, WithCacheStore(cache)); cold != base {
					t.Errorf("cached run diverged:\ncold %+v\nbase %+v", cold, base)
				}
				if warm := run(t, s, flows, WithCacheStore(cache)); warm != base {
					t.Errorf("cache replay diverged:\nwarm %+v\nbase %+v", warm, base)
				}
			})
		}
	}
}
