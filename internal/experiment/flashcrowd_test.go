package experiment

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/runcache"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// TestProfileStationaryMatchesShortFlow is the workload redesign's
// acceptance gate: the stationary short-flow scenario is the profile
// scenario under a Poisson source, so RunProfile must land on the numbers
// the short-flow body of its own produced before it was folded in (the
// shortflow_afct golden still holds them) — the profile runner's extra
// observers (the n(t) sampler, the warmup-boundary snapshot) must not
// perturb a single packet — and a constant profile through the thinning
// engine must land on the identical schedule.
func TestProfileStationaryMatchesShortFlow(t *testing.T) {
	short := shortFlowRun(5, 20*units.Mbps, 0.7, 14, 50, 4*units.Second, 10*units.Second, RunEnv{})
	res := RunProfile(short)

	var pinned struct {
		AFCT                units.Duration
		Completed, Censored int
	}
	blob, err := os.ReadFile(goldenPath("shortflow_afct"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &pinned); err != nil {
		t.Fatal(err)
	}
	if res.AFCT != pinned.AFCT || res.Completed != pinned.Completed || res.Censored != pinned.Censored {
		t.Fatalf("RunProfile (afct=%v completed=%d censored=%d) != the pinned short-flow run %+v",
			res.AFCT, res.Completed, res.Censored, pinned)
	}
	if res.Generated == 0 || res.Utilization <= 0 {
		t.Errorf("profile extras missing: generated=%d util=%v", res.Generated, res.Utilization)
	}

	// A constant profile at the load-equivalent arrival rate goes
	// through the thinning engine instead of the closed-form sampler.
	src := short.Source.(workload.PoissonSource)
	lambda := workload.ArrivalRateForLoad(src.Load, short.BottleneckRate, short.SegmentSize, src.Sizes)
	short.Source = profile.Source{
		Profile: profile.Profile{
			Name:    "stationary",
			Arrival: profile.Curve{{T: 0, V: lambda}, {T: 60 * units.Second, V: lambda}},
		},
		Sizes:     src.Sizes,
		MaxWindow: src.MaxWindow,
	}
	if res2 := RunProfile(short); res2 != res {
		t.Fatalf("constant profile result %+v != Poisson source result %+v", res2, res)
	}
}

// quickFlashCrowd is a scaled-down surge for tests: short windows, a
// compressed profile, two buffer points.
func quickFlashCrowd(seed int64) FlashCrowdConfig {
	prof, err := profile.FlashCrowd.Profile().Compress(4)
	if err != nil {
		panic(err)
	}
	return FlashCrowdConfig{
		Scenario:  Scenario{Seed: seed, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second}},
		Stations:  20,
		Profile:   prof,
		PeakFlows: 8,
		Buffers:   []int{6, 250},
		Drain:     20 * units.Second,
	}
}

func TestFlashCrowdSurgeVisible(t *testing.T) {
	rows := RunFlashCrowd(quickFlashCrowd(3))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Completed == 0 {
			t.Errorf("buffer %d completed no flows", r.Buffer)
		}
		// The population spike (8 long flows at peak) must show in the
		// sampled n(t): the peak clearly exceeds the mean.
		if r.PeakActive < 8 {
			t.Errorf("buffer %d peak n(t) = %v, want >= the 8-flow population spike", r.Buffer, r.PeakActive)
		}
		if r.PeakActive <= r.MeanActive {
			t.Errorf("buffer %d: peak n(t) %v not above mean %v — no surge visible", r.Buffer, r.PeakActive, r.MeanActive)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("buffer %d utilization = %v", r.Buffer, r.Utilization)
		}
	}
	// The sweep's point: a small buffer rides out the surge worse than
	// a BDP-scale one.
	if rows[0].LossRate <= rows[1].LossRate {
		t.Errorf("loss did not fall with buffer: %v (%d pkts) vs %v (%d pkts)",
			rows[0].LossRate, rows[0].Buffer, rows[1].LossRate, rows[1].Buffer)
	}
	if rows[0].BufferBDP >= rows[1].BufferBDP {
		t.Errorf("BufferBDP not increasing: %v, %v", rows[0].BufferBDP, rows[1].BufferBDP)
	}
}

// TestFlashCrowdParallelismInvariance: every point owns its scheduler
// and RNG, so worker count must not change a bit of the table.
func TestFlashCrowdParallelismInvariance(t *testing.T) {
	a := quickFlashCrowd(7)
	a.Parallelism = 1
	b := quickFlashCrowd(7)
	b.Parallelism = 4
	ra, rb := RunFlashCrowd(a), RunFlashCrowd(b)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("parallelism changed results:\n1 worker: %+v\n4 workers: %+v", ra, rb)
	}
}

// TestFlashCrowdCachedAndAudited: the sweep memoizes per point (source
// included in the key), replays warm bit-identically, and runs clean
// under the conservation-law auditor.
func TestFlashCrowdCachedAndAudited(t *testing.T) {
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickFlashCrowd(11)
	cfg.Cache = store
	cfg.Audit = audit.New()
	cold := RunFlashCrowd(cfg)
	if cfg.Audit.Count() != 0 {
		t.Fatalf("audit violations: %v", cfg.Audit.Violations())
	}
	if store.Stats().Puts == 0 {
		t.Fatal("sweep stored nothing")
	}

	warm := quickFlashCrowd(11)
	warm.Cache = store
	before := store.Stats()
	if got := RunFlashCrowd(warm); !reflect.DeepEqual(got, cold) {
		t.Fatalf("warm replay differs:\ncold: %+v\nwarm: %+v", cold, got)
	}
	if store.Stats().Hits == before.Hits {
		t.Error("warm sweep did not hit the cache")
	}
}
