package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/runcache"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// resultDigest canonicalizes a result via JSON and hashes it. Every field
// that reaches the digest is either an integer count, a units quantity
// (int64 nanoseconds) or a float64 produced by a deterministic sequence of
// operations, so the digest is bit-stable across runs on one platform and
// across kernel implementations that preserve event ordering.
func resultDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenDigestCases is shared by TestGoldenDigests (cache nil — plain
// simulation) and TestGoldenDigestsCached (cold store, then warm replay):
// the pinned digests must come out identical on all three paths.
var goldenDigestCases = []struct {
	name string
	want string
	run  func(cache *runcache.Store, shards int) any
}{
	{
		name: "long_lived_reno",
		want: "9a84081920306444da24a3f7b94e199fd1a78e6ed655c4cecffa355500e2b8aa",
		run: func(cache *runcache.Store, shards int) any {
			return RunLongLived(LongLivedConfig{
				Seed: 7, N: 24, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second},
				BufferPackets: 40,
				RunEnv:        RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "long_lived_sack_paced_delack",
		want: "daee4e44719aaf120f2fccfae01a5d4e8f44167ca7e45a99fc29ff082c406fc7",
		run: func(cache *runcache.Store, shards int) any {
			return RunLongLived(LongLivedConfig{
				Seed: 11, N: 16, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second},
				BufferPackets: 25, Variant: 3, /* Sack */
				Paced: true, DelayedAck: true,
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "long_lived_red_ecn",
		want: "add72eca42d9e202e691005e4425cd7e85da6dbbe0048ec004e420a7366c35d1",
		run: func(cache *runcache.Store, shards int) any {
			return RunLongLived(LongLivedConfig{
				Seed: 3, N: 20, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second},
				BufferPackets: 30, UseRED: true, ECN: true,
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "long_lived_cubic",
		want: "ab78bc44d4975a329be3f3ec6741da5db68ee9fab99884d6ac46f400277c002a",
		run: func(cache *runcache.Store, shards int) any {
			return RunLongLived(LongLivedConfig{
				Seed: 13, N: 24, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second},
				BufferPackets: 40, Variant: 4, /* Cubic */
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "long_lived_bbr",
		want: "0297c3f652b500fdf658e2897ab901e0bd099c9f9495a931b795e393fc53c5fd",
		run: func(cache *runcache.Store, shards int) any {
			return RunLongLived(LongLivedConfig{
				Seed: 17, N: 16, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second},
				BufferPackets: 30, Variant: 5, /* BBR */
				DelayedAck: true,
				RunEnv:     RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "single_flow_sawtooth",
		want: "b944849af08fc27334a6d438a21a7c1c3a3888914de021470ff0720238a5d273",
		run: func(cache *runcache.Store, shards int) any {
			return RunSingleFlow(SingleFlowConfig{
				Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 30 * units.Second, Measure: 40 * units.Second}, BufferFactor: 1,
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "short_flows",
		want: "5d4523c64431bd9c5764512cf63f90d15d96c3c95ac360b9ab1651a9c012d714",
		run: func(cache *runcache.Store, shards int) any {
			return shortFlowDigest(RunProfile(shortFlowRun(5, 20*units.Mbps, 0.7, 14, 50,
				4*units.Second, 10*units.Second, RunEnv{Cache: cache, Shards: shards})))
		},
	},
	{
		name: "mixed_traffic",
		want: "af5cdb47b0ca1b22709bc162f534cf059dc54bdc275a2decbb6c704c5087e16e",
		run: func(cache *runcache.Store, shards int) any {
			return RunMixed(MixedConfig{AFCTComparisonConfig{
				Seed: 9, NLong: 12, ShortLoad: 0.15,
				Sizes:  workload.GeometricSize(10),
				Path:   Path{BottleneckRate: 20 * units.Mbps, Warmup: 5 * units.Second, Measure: 10 * units.Second},
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			}, 35})
		},
	},
	{
		name: "profile_flashcrowd",
		want: "fa7d5874c5551439e82a093a0928c15f5e464cf2d2bd12a30aaa92e7cf1581e7",
		run: func(cache *runcache.Store, shards int) any {
			prof, err := profile.FlashCrowd.Profile().Compress(4)
			if err != nil {
				panic(err)
			}
			return RunFlashCrowd(FlashCrowdConfig{
				Seed: 21, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second},
				Stations: 20, Profile: prof, PeakFlows: 8,
				Buffers: []int{25, 100},
				Drain:   20 * units.Second,
				RunEnv:  RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "trace_replay",
		want: "7290a2b5fb47831db7e58c781fe5fffa64b33d509eb6b618a7329c14fd81c949",
		run: func(cache *runcache.Store, shards int) any {
			flows := make([]workload.FlowSpec, 0, 60)
			for i := 0; i < 60; i++ {
				flows = append(flows, workload.FlowSpec{
					Start: units.Duration(i) * 200 * units.Millisecond,
					Size:  int64(2 + i%37),
				})
			}
			return RunTrace(TraceConfig{
				Seed: 2, Flows: flows,
				Path: Path{BottleneckRate: 10 * units.Mbps}, BufferPackets: 30,
				Drain:  20 * units.Second,
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "harpoon_sessions",
		want: "fc25e502881cab965e14c2781c7bc46206a20630e202e987726b5246c63d4bda",
		run: func(cache *runcache.Store, shards int) any {
			return RunHarpoon(HarpoonConfig{
				Seed: 4, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second}, Sessions: 60,
				Sizes:     workload.ParetoSize{Shape: 1.2, Min: 10, Max: 500},
				MeanThink: 500 * units.Millisecond,
				Factors:   []float64{0.5, 2},
				RunEnv:    RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "production_points",
		want: "8f9befcaa913e7e78c5a06f15155d96e39c7a88184781bb8044f519ec701909b",
		run: func(cache *runcache.Store, shards int) any {
			return RunProduction(ProductionConfig{
				Seed: 6, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 6 * units.Second}, NLong: 10,
				Buffers: []int{20, 60},
				RunEnv:  RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "smoothing_points",
		want: "159be815a3430f177da5851bf7a6d15cb11f1a3dccff089883205a6668500149",
		run: func(cache *runcache.Store, shards int) any {
			return RunSmoothing(SmoothingConfig{
				Seed: 8, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 2 * units.Second, Measure: 6 * units.Second}, Stations: 20,
				AccessRatios: []float64{10, 0.5},
				RunEnv:       RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "window_dist",
		want: "6ea91f11259eccc6cf4471720309e4c35b625512dcc7abc60bdb666fa8b575f5",
		run: func(cache *runcache.Store, shards int) any {
			return RunWindowDist(WindowDistConfig{
				Seed: 10, N: 12, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second},
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
	{
		name: "adversary_pulse",
		want: "8015abb598a75d1c76d88a78afc5eade504b9a9276e0dc1c87a14ccec2dab170",
		run:  adversaryDigestCase(adversary.PatternPulse),
	},
	{
		name: "adversary_aimdsync",
		want: "bf60c25f3befd49602c472e1b41a7a403f4cc7a1795e8177b6422cc084031033",
		run:  adversaryDigestCase(adversary.PatternSyncAIMD),
	},
	{
		name: "adversary_parkinglot",
		want: "4e59c25aa91d82a825b31bd832f09ca12dd4a3a014c544442c23056fe0f27b1f",
		run:  adversaryDigestCase(adversary.PatternParkingLot),
	},
	{
		name: "multihop",
		want: "7373cbd05994f432cf37ba58bf327d19876d1c04b6cec7883b4c707774147b72",
		run: func(cache *runcache.Store, shards int) any {
			return RunMultiHop(MultiHopConfig{
				Seed: 12, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second}, NPerGroup: 6,
				RunEnv: RunEnv{Cache: cache, Shards: shards},
			})
		},
	},
}

// shortFlowRun is the paper's short-flow scenario the way the suite has
// always run it — Poisson arrivals of fixed-length slow-start flows,
// receiver window 43 — spelled as the profile scenario it is.
func shortFlowRun(seed int64, rate units.BitRate, load float64, flowLen int64, buffer int, warmup, measure units.Duration, env RunEnv) ProfileRunConfig {
	return ProfileRunConfig{
		Seed: seed, BufferPackets: buffer,
		Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure},
		Source: workload.PoissonSource{
			Load: load, Sizes: workload.FixedSize(flowLen),
			TCP: tcp.Config{SegmentSize: units.DefaultSegment, MaxWindow: 43},
		},
		RunEnv: env,
	}
}

// shortFlowDigest is what the short_flows digest and the shortflow_afct
// golden have pinned since the scenario had a body of its own.
func shortFlowDigest(r ProfileRunResult) any {
	return map[string]any{"afct": r.AFCT, "completed": r.Completed, "censored": r.Censored}
}

// adversaryDigestCase is one adversarial pattern at a quarter-BDP buffer.
func adversaryDigestCase(p adversary.Pattern) func(*runcache.Store, int) any {
	return func(cache *runcache.Store, shards int) any {
		return RunAdversaryScenario(AdversaryScenario{
			Seed: 14, Pattern: p, BufferPackets: 17,
			AdversaryCohort: AdversaryCohort{
				N: 8, Hops: 2,
				Path: Path{BottleneckRate: 10 * units.Mbps, RTTMin: 80 * units.Millisecond, Warmup: 2 * units.Second, Measure: 4 * units.Second},
			},
			RunEnv: RunEnv{Cache: cache, Shards: shards},
		})
	}
}

// TestGoldenDigests pins the exact results of a scaled-down slice of the
// experiment suite. The first ten digests were recorded with the
// pre-pooling container/heap kernel; the pooled 4-ary-heap kernel must
// reproduce them bit for bit — that is the determinism contract of the
// rewrite. (long_lived_reno, long_lived_sack_paced_delack and
// mixed_traffic were re-recorded once, when MeanQueue's legacy t=0 epoch
// was retired: MeanQueue is the only field that moved.) The cases from
// harpoon_sessions on were recorded on the hand-assembled scenario bodies
// the one test bed (bed.go) replaced, and cover every body the first ten
// do not. If a deliberate behaviour change invalidates a digest,
// re-record by copying the digests the failing run prints.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range goldenDigestCases {
		t.Run(tc.name, func(t *testing.T) {
			got := resultDigest(t, tc.run(nil, 0))
			if got != tc.want {
				t.Errorf("digest = %s, want %s\n(a digest change means the kernel no longer reproduces the pre-rewrite packet schedule)", got, tc.want)
			}
		})
	}
}

// TestGoldenDigestsCached re-runs the pinned cases against a cache: the
// cold pass (simulate + store) and the warm pass (replay from disk) must
// both reproduce the exact digests TestGoldenDigests pins without one —
// the caching layer is not allowed to perturb a single bit.
func TestGoldenDigestsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenDigestCases {
		t.Run(tc.name, func(t *testing.T) {
			before := store.Stats()
			if got := resultDigest(t, tc.run(store, 0)); got != tc.want {
				t.Errorf("cold cached digest = %s, want %s", got, tc.want)
			}
			if got := resultDigest(t, tc.run(store, 0)); got != tc.want {
				t.Errorf("warm cached digest = %s, want %s", got, tc.want)
			}
			after := store.Stats()
			if after.Hits == before.Hits {
				t.Errorf("second run did not hit the cache (hits %d -> %d)", before.Hits, after.Hits)
			}
			if after.Puts == before.Puts {
				t.Errorf("first run did not store its result (puts %d -> %d)", before.Puts, after.Puts)
			}
		})
	}
}
