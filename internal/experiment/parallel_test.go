package experiment

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("paired sweeps")
	}
	cfg := UtilizationTableConfig{
		Seed:    5,
		Path:    Path{BottleneckRate: 10 * units.Mbps, Warmup: 5 * units.Second, Measure: 8 * units.Second},
		Ns:      []int{20, 40},
		Factors: []float64{1, 2},
	}
	cfg.Parallelism = 1
	seq := RunUtilizationTable(cfg)
	cfg.Parallelism = 8
	par := RunUtilizationTable(cfg)
	if len(seq) != len(par) {
		t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("row %d differs:\nseq %+v\npar %+v", i, seq[i], par[i])
		}
	}
}

// TestEveryFanOutGoesThroughTheSweep covers the seven drivers that used
// to loop over their grid by hand: worker count must not change a row,
// and a context cancelled before the first point leaves every row zero
// instead of simulating (RunHarpoon's calibration run, which comes
// before its ladder, aside).
func TestEveryFanOutGoesThroughTheSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("paired sweeps")
	}
	path := Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		// run returns the driver's rows (a slice) under env.
		run func(env RunEnv) any
	}{
		{"RunPacingAblation", func(env RunEnv) any {
			return RunPacingAblation(PacingConfig{Seed: 1, N: 8, Path: path, RunEnv: env})
		}},
		{"RunVariantAblation", func(env RunEnv) any {
			return RunVariantAblation(VariantConfig{Seed: 2, N: 8, Path: path, RunEnv: env})
		}},
		{"RunECN", func(env RunEnv) any {
			res := RunECN(ECNConfig{Seed: 3, N: 8, Path: path, RunEnv: env})
			return []LongLivedResult{res.Drop, res.Mark}
		}},
		{"RunSyncAblation", func(env RunEnv) any {
			return RunSyncAblation(SyncConfig{Seed: 4, Ns: []int{4, 8, 12}, Path: path, RunEnv: env})
		}},
		{"RunSmoothing", func(env RunEnv) any {
			return RunSmoothing(SmoothingConfig{Seed: 5, Stations: 10, Path: path, RunEnv: env}).Points
		}},
		{"RunHarpoon", func(env RunEnv) any {
			return RunHarpoon(HarpoonConfig{Seed: 6, Sessions: 30, MeanThink: 500 * units.Millisecond, Path: path, RunEnv: env}).Rows
		}},
		{"RunAFCTComparison", func(env RunEnv) any {
			res := RunAFCTComparison(AFCTComparisonConfig{Seed: 7, NLong: 4, Path: path, RunEnv: env})
			return []AFCTOutcome{res.RuleThumb, res.SqrtRule}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A registry on the sweep is what the race detector needs to see
			// that no two concurrent points share one.
			seq := tc.run(RunEnv{Parallelism: 1, Metrics: metrics.New()})
			par := tc.run(RunEnv{Parallelism: 4, Metrics: metrics.New()})
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("rows differ across worker counts:\nseq %+v\npar %+v", seq, par)
			}
			rows := reflect.ValueOf(tc.run(RunEnv{Ctx: cancelled}))
			if rows.Len() != reflect.ValueOf(seq).Len() {
				t.Fatalf("cancelled run returned %d rows, want %d", rows.Len(), reflect.ValueOf(seq).Len())
			}
			for i := 0; i < rows.Len(); i++ {
				if !rows.Index(i).IsZero() {
					t.Errorf("row %d ran under a cancelled context: %+v", i, rows.Index(i))
				}
				if reflect.ValueOf(seq).Index(i).IsZero() {
					t.Errorf("row %d of the live run is zero", i)
				}
			}
		})
	}
}

// stableMetricsJSON renders a registry snapshot with the wall-clock gauges
// removed — those measure host time, everything else must be
// deterministic.
func stableMetricsJSON(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	snap := reg.Snapshot()
	for name := range snap.Gauges {
		if strings.Contains(name, "wall_seconds") {
			delete(snap.Gauges, name)
		}
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepDeterministicWithMetrics is the telemetry contract: attaching a
// registry must not change a single result bit, and the merged registry
// itself must be identical at any worker count.
func TestSweepDeterministicWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("paired sweeps")
	}
	cfg := UtilizationTableConfig{
		Seed:    5,
		Path:    Path{BottleneckRate: 10 * units.Mbps, Warmup: 5 * units.Second, Measure: 8 * units.Second},
		Ns:      []int{20, 40},
		Factors: []float64{1, 2},
	}
	cfg.Parallelism = 4
	plain := RunUtilizationTable(cfg)

	withMetrics := cfg
	withMetrics.Metrics = metrics.New()
	withMetrics.Parallelism = 1
	seq := RunUtilizationTable(withMetrics)
	seqJSON := stableMetricsJSON(t, withMetrics.Metrics)

	withMetrics.Metrics = metrics.New()
	withMetrics.Parallelism = 8
	par := RunUtilizationTable(withMetrics)
	parJSON := stableMetricsJSON(t, withMetrics.Metrics)

	if len(plain) != len(seq) || len(plain) != len(par) {
		t.Fatalf("row counts differ: plain=%d seq=%d par=%d", len(plain), len(seq), len(par))
	}
	for i := range plain {
		if plain[i] != seq[i] {
			t.Errorf("row %d: metrics changed the result:\noff %+v\non  %+v", i, plain[i], seq[i])
		}
		if seq[i] != par[i] {
			t.Errorf("row %d differs across worker counts:\nseq %+v\npar %+v", i, seq[i], par[i])
		}
	}
	if seqJSON != parJSON {
		t.Errorf("merged registry differs across worker counts:\nseq %s\npar %s", seqJSON, parJSON)
	}
	if !strings.Contains(seqJSON, "sim.events_processed") {
		t.Errorf("registry missing scheduler counters: %s", seqJSON)
	}
}

// TestLongLivedMetricsPopulated checks that one instrumented run publishes
// the scheduler, queue and TCP instruments it promises.
func TestLongLivedMetricsPopulated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	reg := metrics.New()
	RunLongLived(LongLivedConfig{
		Seed:   7,
		N:      10,
		Path:   Path{BottleneckRate: 10 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second},
		RunEnv: RunEnv{Metrics: reg},
	})
	snap := reg.Snapshot()
	for _, name := range []string{
		"sim.events_processed",
		"bottleneck.enqueued_packets",
		"bottleneck.dequeued_packets",
		"tcp.segments_sent",
		"tcp.acks_received",
		"tcp.flows_tracked",
	} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, snap.Counters[name])
		}
	}
	if snap.Gauges["sim.wall_seconds"] <= 0 {
		t.Errorf("sim.wall_seconds = %v, want > 0", snap.Gauges["sim.wall_seconds"])
	}
	if snap.Gauges["sim.time_seconds"] != 8 {
		t.Errorf("sim.time_seconds = %v, want 8", snap.Gauges["sim.time_seconds"])
	}
	if h := snap.Histograms["bottleneck.sojourn_ms"]; h.Count <= 0 {
		t.Errorf("sojourn histogram empty: %+v", h)
	}
	if h := snap.Histograms["tcp.cwnd_segments"]; h.Count <= 0 {
		t.Errorf("cwnd histogram empty: %+v", h)
	}
}
