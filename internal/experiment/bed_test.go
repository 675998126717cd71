package experiment

import (
	"reflect"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/metrics"
	"bufsim/internal/model"
	"bufsim/internal/units"
	"bufsim/internal/workload"
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
			Seed: 3, Pattern: p, BufferPackets: 20, RunEnv: env,
			AdversaryCohort: AdversaryCohort{
				N: 6, Path: Path{BottleneckRate: rate, RTTMin: 80 * units.Millisecond, SegmentSize: units.DefaultSegment, Warmup: warmup, Measure: measure},
				PulsePeakFactor: 4, PulsePeriod: 200 * units.Millisecond, PulseDuty: 0.25, Hops: 2,
			},
		}
	}
	bodies := []struct {
		name string
		run  func(env RunEnv) any
	}{
		{"runLongLived", func(env RunEnv) any {
			return runLongLived(LongLivedConfig{
				Seed: 1, N: 6, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}, BufferPackets: 20,
				RunEnv: env,
			}.withDefaults())
		}},
		{"runSingleFlow", func(env RunEnv) any {
			return runSingleFlow(SingleFlowConfig{
				Path: Path{Warmup: warmup, Measure: measure}, RunEnv: env,
			}.withDefaults())
		}},
		{"runTrace", func(env RunEnv) any {
			return RunTrace(TraceConfig{
				Seed:  2,
				Flows: []workload.FlowSpec{{Start: 0, Size: 20}, {Start: units.Second, Size: 8}},
				Path:  Path{BottleneckRate: rate}, BufferPackets: 20,
				Drain: 5 * units.Second, RunEnv: env,
			})
		}},
		{"runMixedUncached", func(env RunEnv) any {
			return runMixedUncached(MixedConfig{AFCTComparisonConfig{
				Seed: 3, NLong: 4, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure},
				RunEnv: env,
			}.withDefaults(), 20}, "mixed")
		}},
		{"runProfileUncached", func(env RunEnv) any {
			return runProfileUncached(ProfileRunConfig{
				Seed: 4, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}, BufferPackets: 20,
				Source: workload.PoissonSource{Load: 0.5, Sizes: workload.FixedSize(10)},
				Drain:  5 * units.Second, RunEnv: env,
			}.withDefaults())
		}},
		{"runHarpoonUncached", func(env RunEnv) any {
			return runHarpoonUncached(HarpoonConfig{
				Seed: 5, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}, Sessions: 30,
				MeanThink: 500 * units.Millisecond,
				RunEnv:    env,
			}.withDefaults(), 20)
		}},
		{"runProductionPoint", func(env RunEnv) any {
			cfg := ProductionConfig{
				Seed: 6, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}, NLong: 6,
			}.withDefaults()
			return runProductionPoint(cfg, env, 20, 100)
		}},
		{"runSmoothingPoint", func(env RunEnv) any {
			cfg := SmoothingConfig{
				Seed: 7, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}, Stations: 10,
				RunEnv: env,
			}.withDefaults()
			return runSmoothingPoint(cfg, 1, model.MomentsForFlowLength(cfg.FlowLen, 2, cfg.MaxWindow))
		}},
		{"runWindowDist", func(env RunEnv) any {
			return runWindowDist(WindowDistConfig{
				Seed: 8, N: 6, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure},
				RunEnv: env,
			}.withDefaults())
		}},
		{"runAdversarialDumbbell", func(env RunEnv) any {
			return runAdversarialDumbbell(point(adversary.PatternSyncAIMD, env), 0.25)
		}},
		{"runMultiHop", func(env RunEnv) any {
			return runMultiHop(MultiHopConfig{
				Seed: 9, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}, NPerGroup: 3,
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
