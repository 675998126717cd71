package experiment

import (
	"fmt"
	"math/rand"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// shardSweep is the shard-count axis of the equivalence tests: unsharded,
// the minimum sharded cut, a mid count, and more shards than some
// scenarios have stations (exercising the clamp).
var shardSweep = []int{1, 2, 4, 8}

// TestShardedMatchesUnsharded is the sharded kernel's proof obligation:
// every pinned-digest scenario must reproduce its golden digest — the one
// recorded on the sequential kernel — bit for bit at every shard count.
// The digests cover every result field (throughputs, queue occupancies,
// AFCTs, full time series), so a single reordered packet anywhere in the
// run fails the test. Combined with TestGoldenDigests (shards = 0) this
// pins sharded == unsharded == pre-rewrite kernel.
func TestShardedMatchesUnsharded(t *testing.T) {
	counts := shardSweep
	if testing.Short() {
		counts = []int{2, 8}
	}
	for _, tc := range goldenDigestCases {
		for _, n := range counts {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, n), func(t *testing.T) {
				got := resultDigest(t, tc.run(nil, n))
				if got != tc.want {
					t.Errorf("digest with %d shards = %s, want %s\n(the sharded kernel diverged from the sequential packet schedule)", n, got, tc.want)
				}
			})
		}
	}
}

// TestShardedMatchesUnshardedRandomized widens the equivalence check past
// the pinned scenarios: randomized long-lived configs (the family that
// shards fully, with every station on its own shard class) must produce
// identical digests sharded and unsharded. The configs are drawn from a
// fixed seed so failures reproduce.
func TestShardedMatchesUnshardedRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	rng := rand.New(rand.NewSource(20040814)) // the paper's publication month
	for i := 0; i < 4; i++ {
		cfg := LongLivedConfig{
			Seed:          rng.Int63n(1 << 20),
			N:             2 + rng.Intn(30),
			Path:          Path{BottleneckRate: units.BitRate(5+rng.Intn(20)) * units.Mbps, Warmup: 2 * units.Second, Measure: 4 * units.Second},
			BufferPackets: 5 + rng.Intn(60),
			Variant:       [...]tcp.Variant{0, 3, 4, 5}[rng.Intn(4)],
			DelayedAck:    rng.Intn(2) == 0,
			Paced:         rng.Intn(2) == 0,
		}
		want := resultDigest(t, RunLongLived(cfg))
		for _, n := range []int{2, 4, 8} {
			sharded := cfg
			sharded.Shards = n
			t.Run(fmt.Sprintf("cfg%d/shards=%d", i, n), func(t *testing.T) {
				if got := resultDigest(t, RunLongLived(sharded)); got != want {
					t.Errorf("digest with %d shards = %s, want %s (config %+v)", n, got, want, cfg)
				}
			})
		}
	}
}

// TestShardedAuditZeroViolations runs sharded scenarios under the
// conservation-law auditor: sharding must not perturb a single invariant
// — per-shard clocks and the merge points stay monotone, queues conserve
// packets, TCP windows balance. A sequential control run establishes the
// baseline expectation of zero.
func TestShardedAuditZeroViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, n := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			aud := audit.New()
			RunLongLived(LongLivedConfig{
				Seed: 7, N: 24, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 4 * units.Second, Measure: 8 * units.Second},
				BufferPackets: 40,
				RunEnv:        RunEnv{Audit: aud, Shards: n},
			})
			if vs := aud.Violations(); len(vs) != 0 {
				t.Fatalf("audit reported %d violations under %d shards; first: %s", len(vs), n, vs[0])
			}
		})
	}
}
