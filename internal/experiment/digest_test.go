package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/runcache"
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
	run  func(cache *runcache.Store) any
}{
	{
		name: "long_lived_reno",
		want: "e3103e4374167e83fefcbbd8fdc673c596523e9f52e0099b575c5ce26ce376e1",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Scenario: Scenario{Seed: 7, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second}}, N: 24,
				BufferPackets: 40,
				RunEnv:        RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_sack_paced_delack",
		want: "77c2026cbef1806baa729c92c2d6def3a75d42d49e5fbe35f0d7eac64d683bab",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Scenario: Scenario{Seed: 11, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second}, Sender: Sender{Variant: 3 /* Sack */, Paced: true, DelayedAck: true}}, N: 16,
				BufferPackets: 25,
				RunEnv:        RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_red_ecn",
		want: "f10135e8f1def8587fda85f01abd17204c8d8bd6c6c2ba797e5a99b50cd3af49",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Scenario: Scenario{Seed: 3, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second}, Queue: REDECN}, N: 20,
				BufferPackets: 30,
				RunEnv:        RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_cubic",
		want: "190cfc02f1a7bf9b5e255b57f06b23fa318209896c6f55389b73a8b504a9bca6",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Scenario: Scenario{Seed: 13, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second}, Sender: Sender{Variant: 4 /* Cubic */}}, N: 24,
				BufferPackets: 40,
				RunEnv:        RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "long_lived_bbr",
		want: "4dc7f510198c02cedce92182903e94d578638e2b856b4405ad479d517b26e859",
		run: func(cache *runcache.Store) any {
			return RunLongLived(LongLivedConfig{
				Scenario: Scenario{Seed: 17, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second}, Sender: Sender{Variant: 5 /* BBR */, DelayedAck: true}}, N: 16,
				BufferPackets: 30,
				RunEnv:        RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "single_flow_sawtooth",
		want: "142cdc8b2e609365c86bf865dcdd730feeda67fbf87ef83d433e80caf3754876",
		run: func(cache *runcache.Store) any {
			return RunSingleFlow(SingleFlowConfig{
				Scenario: Scenario{Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 30 * units.Second, Measure: 40 * units.Second}}, BufferFactor: 1,
				RunEnv: RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "short_flows",
		want: "8abc0d5cd131103f00f692062e69661ac71eaa86c3b7db72612917e4bfcc3d0c",
		run: func(cache *runcache.Store) any {
			return shortFlowDigest(RunProfile(shortFlowRun(5, 20*units.Mbps, 0.7, 14, 50,
				4*units.Second, 10*units.Second, RunEnv{Cache: cache})))
		},
	},
	{
		name: "mixed_traffic",
		want: "5a3b99f96856a3db3c18227f21f18ec6ee4fafe91fdc258c76cd46173d23b73f",
		run: func(cache *runcache.Store) any {
			return RunMixed(MixedConfig{AFCTComparisonConfig{
				Scenario: Scenario{Seed: 9, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 5 * units.Second, Measure: 10 * units.Second}}, NLong: 12, ShortLoad: 0.15,
				Sizes:  workload.GeometricSize(10),
				RunEnv: RunEnv{Cache: cache},
			}, 35})
		},
	},
	{
		name: "profile_flashcrowd",
		want: "246cfdf23b547aa915ad4d57eabee9ee0e605c923b35380e9ce60e73f2471b29",
		run: func(cache *runcache.Store) any {
			prof, err := profile.FlashCrowd.Profile().Compress(4)
			if err != nil {
				panic(err)
			}
			return RunFlashCrowd(FlashCrowdConfig{
				Scenario: Scenario{Seed: 21, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second}},
				Stations: 20, Profile: prof, PeakFlows: 8,
				Buffers: []int{25, 100},
				Drain:   20 * units.Second,
				RunEnv:  RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "trace_replay",
		want: "7290a2b5fb47831db7e58c781fe5fffa64b33d509eb6b618a7329c14fd81c949",
		run: func(cache *runcache.Store) any {
			flows := make([]workload.FlowSpec, 0, 60)
			for i := 0; i < 60; i++ {
				flows = append(flows, workload.FlowSpec{
					Start: units.Duration(i) * 200 * units.Millisecond,
					Size:  int64(2 + i%37),
				})
			}
			return RunTrace(TraceConfig{
				Scenario: Scenario{Seed: 2, Path: Path{BottleneckRate: 10 * units.Mbps}}, Flows: flows, BufferPackets: 30,
				Drain:  20 * units.Second,
				RunEnv: RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "harpoon_sessions",
		want: "c2b96e097fb0ee7d04d68981f9aa87c0c003fb7c3ce371ea863766d4597f591c",
		run: func(cache *runcache.Store) any {
			return RunHarpoon(HarpoonConfig{
				Scenario: Scenario{Seed: 4, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second}}, Sessions: 60,
				Sizes:     workload.ParetoSize{Shape: 1.2, Min: 10, Max: 500},
				MeanThink: 500 * units.Millisecond,
				Factors:   []float64{0.5, 2},
				RunEnv:    RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "production_points",
		want: "91a253db26d1ce8862548a3be8894de1ee92f7cc774a366134b902dc2068a722",
		run: func(cache *runcache.Store) any {
			return RunProduction(ProductionConfig{
				Scenario: Scenario{Seed: 6, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 6 * units.Second}}, NLong: 10,
				Buffers: []int{20, 60},
				RunEnv:  RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "smoothing_points",
		want: "159be815a3430f177da5851bf7a6d15cb11f1a3dccff089883205a6668500149",
		run: func(cache *runcache.Store) any {
			return RunSmoothing(SmoothingConfig{
				Scenario: Scenario{Seed: 8, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 2 * units.Second, Measure: 6 * units.Second}}, Stations: 20,
				AccessRatios: []float64{10, 0.5},
				RunEnv:       RunEnv{Cache: cache},
			})
		},
	},
	{
		name: "window_dist",
		want: "553d1ee87a31ae23472c33e2de9be4b594fe2e9dca34e81e775228509cfd5888",
		run: func(cache *runcache.Store) any {
			return RunWindowDist(WindowDistConfig{
				Scenario: Scenario{Seed: 10, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second}}, N: 12,
				RunEnv: RunEnv{Cache: cache},
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
		want: "2d9d6d6e621f0ae69e831e246e1d097ebe7602375db120e0a84b508e63bb25ed",
		run:  adversaryDigestCase(adversary.PatternSyncAIMD),
	},
	{
		name: "adversary_parkinglot",
		want: "d849a7600971ce32f8db2e4bfcb30887c97e05fcd73ff80f49c23dd37a635d0c",
		run:  adversaryDigestCase(adversary.PatternParkingLot),
	},
	{
		name: "multihop",
		want: "52a9efa3da21f9f941b2d53029fa7c2cca116e97c82a05f34668c1851fe019f8",
		run: func(cache *runcache.Store) any {
			return RunMultiHop(MultiHopConfig{
				Scenario: Scenario{Seed: 12, Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second}}, NPerGroup: 6,
				RunEnv: RunEnv{Cache: cache},
			})
		},
	},
}

// shortFlowRun is the paper's short-flow scenario the way the suite has
// always run it — Poisson arrivals of fixed-length slow-start flows,
// receiver window 43 — spelled as the profile scenario it is.
func shortFlowRun(seed int64, rate units.BitRate, load float64, flowLen int64, buffer int, warmup, measure units.Duration, env RunEnv) ProfileRunConfig {
	return ProfileRunConfig{
		Scenario: Scenario{Seed: seed, Path: Path{BottleneckRate: rate, Warmup: warmup, Measure: measure}}, BufferPackets: buffer,
		Source: workload.PoissonSource{
			Load: load, Sizes: workload.FixedSize(flowLen),
			MaxWindow: 43,
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
func adversaryDigestCase(p adversary.Pattern) func(*runcache.Store) any {
	return func(cache *runcache.Store) any {
		return RunAdversaryScenario(AdversaryScenario{
			Scenario: Scenario{Seed: 14,
				Path: Path{BottleneckRate: 10 * units.Mbps, RTTMin: 80 * units.Millisecond, Warmup: 2 * units.Second, Measure: 4 * units.Second}},
			Pattern: p, BufferPackets: 17,
			AdversaryCohort: AdversaryCohort{N: 8, Hops: 2},
			RunEnv:          RunEnv{Cache: cache},
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
// do not. adversary_parkinglot was re-recorded when the access and
// reverse links became one-event pipes (link.NewPipe): its flows share one
// RTT and one start instant, so its schedule depends on the order of
// same-nanosecond events, and a pipe reserves an arrival's place in that
// order when the packet is sent rather than when its last bit leaves.
// Every digest but trace_replay, smoothing_points and adversary_pulse was
// re-recorded when a late ACK began to raise the TCP sender's sndNxt, so
// a timeout's go-back-N no longer resends data the receiver holds.
// If a deliberate behaviour change invalidates a digest,
// re-record by copying the digests the failing run prints.
func TestGoldenDigests(t *testing.T) {
	for _, tc := range goldenDigestCases {
		t.Run(tc.name, func(t *testing.T) {
			got := resultDigest(t, tc.run(nil))
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
			if got := resultDigest(t, tc.run(store)); got != tc.want {
				t.Errorf("cold cached digest = %s, want %s", got, tc.want)
			}
			if got := resultDigest(t, tc.run(store)); got != tc.want {
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
