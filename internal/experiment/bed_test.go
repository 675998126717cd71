package experiment

import (
	"math"
	"reflect"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/metrics"
	"bufsim/internal/model"
	"bufsim/internal/stats"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// TestTelemetryReachesEveryBody runs each of the twelve scenario bodies
// with and without a registry: the bed instruments whenever one is
// attached, so every body must publish scheduler and packet-pool
// telemetry, and — the observer contract — return exactly what it returns
// unobserved.
func TestTelemetryReachesEveryBody(t *testing.T) {
	const warmup, measure = 2 * units.Second, 3 * units.Second
	rate := 10 * units.Mbps
	point := func(p adversary.Pattern, env RunEnv) AdversaryScenario {
		return AdversaryScenario{
			Scenario: Scenario{Seed: 3, Path: Path{BottleneckRate: rate, RTTMin: 80 * units.Millisecond, SegmentSize: units.DefaultSegment, Warmup: warmup, Measure: measure}},
			Pattern:  p, BufferPackets: 20, RunEnv: env,
			AdversaryCohort: AdversaryCohort{
				N: 6, PulsePeakFactor: 4, PulsePeriod: 200 * units.Millisecond, PulseDuty: 0.25, Hops: 2,
			},
		}
	}
	bodies := []struct {
		name string
		run  func(env RunEnv) any
	}{
		{"runLongLived", func(env RunEnv) any {
			return runLongLived(LongLivedConfig{
				Scenario: Scenario{Seed: 1, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, N: 6, BufferPackets: 20,
				RunEnv: env,
			}.withDefaults())
		}},
		{"runSingleFlow", func(env RunEnv) any {
			return runSingleFlow(SingleFlowConfig{
				Scenario: Scenario{Path: Path{Warmup: warmup, Measure: measure}}, RunEnv: env,
			}.withDefaults())
		}},
		{"runTrace", func(env RunEnv) any {
			return RunTrace(TraceConfig{
				Scenario: Scenario{Seed: 2, Path: Path{BottleneckRate: rate}},
				Flows:    []workload.FlowSpec{{Start: 0, Size: 20}, {Start: units.Second, Size: 8}}, BufferPackets: 20,
				Drain: 5 * units.Second, RunEnv: env,
			})
		}},
		{"runMixedUncached", func(env RunEnv) any {
			return runMixedUncached(MixedConfig{AFCTComparisonConfig{
				Scenario: Scenario{Seed: 3, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, NLong: 4,
				RunEnv: env,
			}.withDefaults(), 20}, "mixed")
		}},
		{"runProfileUncached", func(env RunEnv) any {
			return runProfileUncached(ProfileRunConfig{
				Scenario: Scenario{Seed: 4, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, BufferPackets: 20,
				Source: workload.PoissonSource{Load: 0.5, Sizes: workload.FixedSize(10)},
				Drain:  5 * units.Second, RunEnv: env,
			}.withDefaults())
		}},
		{"runHarpoonUncached", func(env RunEnv) any {
			return runHarpoonUncached(HarpoonConfig{
				Scenario: Scenario{Seed: 5, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, Sessions: 30,
				MeanThink: 500 * units.Millisecond,
				RunEnv:    env,
			}.withDefaults(), 20)
		}},
		{"runProductionPoint", func(env RunEnv) any {
			cfg := ProductionConfig{
				Scenario: Scenario{Seed: 6, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, NLong: 6,
			}.withDefaults()
			return runProductionPoint(cfg, env, 20, 100)
		}},
		{"runSmoothingPoint", func(env RunEnv) any {
			cfg := SmoothingConfig{
				Scenario: Scenario{Seed: 7, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, Stations: 10,
				RunEnv: env,
			}.withDefaults()
			return runSmoothingPoint(cfg, 1, model.MomentsForFlowLength(cfg.FlowLen, 2, cfg.MaxWindow))
		}},
		{"runWindowDist", func(env RunEnv) any {
			return runWindowDist(WindowDistConfig{
				Scenario: Scenario{Seed: 8, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, N: 6,
				RunEnv: env,
			}.withDefaults())
		}},
		{"runAdversarialDumbbell", func(env RunEnv) any {
			return runAdversarialDumbbell(point(adversary.PatternSyncAIMD, env), 0.25)
		}},
		{"runMultiHop", func(env RunEnv) any {
			return runMultiHop(MultiHopConfig{
				Scenario: Scenario{Seed: 9, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, NPerGroup: 3,
				RunEnv: env,
			}.withDefaults())
		}},
		{"runAdversarialParkingLot", func(env RunEnv) any {
			return runAdversarialParkingLot(point(adversary.PatternParkingLot, env), 0.25)
		}},
	}
	for _, body := range bodies {
		t.Run(body.name, func(t *testing.T) {
			reg := metrics.New()
			observed, plain := body.run(RunEnv{Metrics: reg}), body.run(RunEnv{})
			if !reflect.DeepEqual(observed, plain) {
				t.Errorf("telemetry perturbed the run:\n  off: %+v\n  on:  %+v", plain, observed)
			}
			snap := reg.Snapshot()
			if snap.Counters["sim.events_processed"] <= 0 {
				t.Errorf("no scheduler telemetry: counters %v", snap.Counters)
			}
			if snap.Gauges["sim.wall_seconds"] <= 0 {
				t.Errorf("no wall time published: gauges %v", snap.Gauges)
			}
			// Every body here carries TCP flows, and their packets come
			// from the topology's pool.
			if snap.Counters["packet.pool_news"]+snap.Counters["packet.pool_reuses"] <= 0 {
				t.Errorf("no packet-pool telemetry: counters %v", snap.Counters)
			}
		})
	}
}

// TestDrainEndsWithLastWindowedFlow pins when a drain stops: as soon as
// every flow that started in the window has completed, with the
// configured Drain only an upper bound. Long-lived flows keep the link
// busy throughout, so the early end is the drain's own, not an idle
// scheduler's.
func TestDrainEndsWithLastWindowedFlow(t *testing.T) {
	const warmup, measure = 2 * units.Second, 4 * units.Second
	rate := 10 * units.Mbps
	sizes := workload.FixedSize(14)
	run := func(drain units.Duration) (ProfileRunResult, float64) {
		reg := metrics.New()
		res := RunProfile(ProfileRunConfig{
			Scenario:      Scenario{Seed: 5, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}},
			BufferPackets: 40,
			Source: profile.Source{
				Profile:   profile.Constant.Profile().ScaleTo(workload.ArrivalRateForLoad(0.6, rate, units.DefaultSegment, sizes), 5),
				Sizes:     sizes,
				MaxWindow: 32,
			},
			Drain:  drain,
			RunEnv: RunEnv{Metrics: reg},
		})
		return res, reg.Snapshot().Gauges["sim.time_seconds"]
	}

	res, clock := run(30 * units.Second)
	if res.Completed == 0 || res.Censored != 0 {
		t.Fatalf("30s drain: %d completed, %d censored; want every windowed flow complete", res.Completed, res.Censored)
	}
	if full := units.Epoch.Add(warmup + measure + 30*units.Second).Seconds(); clock >= full {
		t.Errorf("30s drain: clock reads %vs, want it stopped before the bound %vs", clock, full)
	}

	res, clock = run(units.Millisecond)
	if res.Censored == 0 {
		t.Fatalf("1ms drain: no censored flow (%d completed); the case needs one in flight", res.Completed)
	}
	if want := units.Epoch.Add(warmup + measure + units.Millisecond).Seconds(); clock != want {
		t.Errorf("1ms drain with a censored flow: clock reads %vs, want the full bound %vs", clock, want)
	}
}

// TestTallyMatchesWindowedSeries: a tally of a probe gives, bit for bit,
// the stats.Mean and Series.Max of the series rig.sample records and
// window.of cuts to the measurement window, samples on both of its ends
// included, at a period that lands on them and at one that does not.
// The probe's values make the sum depend on the order it adds them in.
func TestTallyMatchesWindowedSeries(t *testing.T) {
	for _, every := range []units.Duration{100 * units.Millisecond, 70 * units.Millisecond} {
		r := newRig(RunEnv{}, Path{Warmup: units.Second, Measure: 2 * units.Second})
		probe := func() float64 {
			s := r.sched.Now().Seconds()
			return 1e3*math.Sin(7*s) + s/3
		}
		series := r.sample("probe", every, probe)
		tl := r.tally(every, probe)
		w := r.measure(nil)
		if len(w) != 0 {
			t.Fatalf("a rig with no taps measured %d links", len(w))
		}
		r.sched.Run(r.sched.Now().Add(units.Second)) // a drain past the window
		from, to := r.bounds()
		in := window{from: from, to: to}.of(series)
		if every == 100*units.Millisecond && (in.Times[0] != from.Seconds() || in.Times[in.Len()-1] != to.Seconds()) {
			t.Fatalf("the window's samples span [%v, %v], want its ends [%v, %v]", in.Times[0], in.Times[in.Len()-1], from.Seconds(), to.Seconds())
		}
		if tl.n != in.Len() || tl.mean() != stats.Mean(in.Values) || tl.max != in.Max() {
			t.Errorf("every %v: tally of %d samples: mean %v, max %v; the windowed series' %d: %v, %v",
				every, tl.n, tl.mean(), tl.max, in.Len(), stats.Mean(in.Values), in.Max())
		}
	}
}
