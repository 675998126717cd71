package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from Python 3.
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1.31, 1.33, 1.35, 1.30, 1.44, 1.32}, [3]float64{1.3075, 1.325, 1.3725}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spread = %v, want (4.5-1.5)/3", got)
	}
}

func TestMinAndMedian(t *testing.T) {
	v := []float64{3, 1, 2, 10}
	if minOf(v) != 1 || median(v) != 2.5 || median(v[:3]) != 2 {
		t.Errorf("minOf %v median %v %v", minOf(v), median(v), median(v[:3]))
	}
	if !reflect.DeepEqual(v, []float64{3, 1, 2, 10}) {
		t.Errorf("input reordered: %v", v)
	}
}

func TestStableOutputDropsOnlyVolatileLines(t *testing.T) {
	raw := fixture(t, "bufsim_longlived.stdout")
	got := string(stableOutput(raw))
	if strings.Contains(got, "telemetry:") || strings.Contains(got, "cache:") {
		t.Errorf("volatile lines kept:\n%s", got)
	}
	if !strings.Contains(got, "measured:") || !strings.Contains(got, "note: below 98%") {
		t.Errorf("result lines dropped:\n%s", got)
	}
	sweep := string(stableOutput(fixture(t, "paperexp_fig10.stdout")))
	if strings.Contains(sweep, "(fig10 in") || strings.Contains(sweep, "wrote ") || !strings.Contains(sweep, "99.31%") {
		t.Errorf("sweep filter wrong:\n%s", sweep)
	}
	// Same results, different wall-clock and file notes: same digest.
	other := strings.ReplaceAll(string(raw), "/tmp/m30.json", "/elsewhere/x.json")
	other = strings.ReplaceAll(other, "miss — result stored for next time", "hit — result replayed from a previous identical run")
	if digest(stableOutput(raw)) != digest(stableOutput([]byte(other))) {
		t.Error("digest depends on a volatile line")
	}
	changed := strings.ReplaceAll(string(raw), "66.74%", "66.75%")
	if digest(stableOutput(raw)) == digest(stableOutput([]byte(changed))) {
		t.Error("digest blind to a changed result")
	}
}

func TestUtilization(t *testing.T) {
	if u, err := utilization(fixture(t, "bufsim_longlived.stdout")); err != nil || !near(u, 0.6674) {
		t.Errorf("utilization = %v, %v", u, err)
	}
	for _, bad := range []string{"", "measured:        0.00% utilization\n", "measured:        100.01% utilization\n", "unmeasured: 5% utilization\n"} {
		if u, err := utilization([]byte(bad)); err == nil {
			t.Errorf("utilization(%q) = %v, want an error", bad, u)
		}
	}
}

func TestFlowCounts(t *testing.T) {
	launched, completed, ok := flowCounts(fixture(t, "bufsim_profile.stdout"))
	if !ok || launched != 16537 || completed != 15074 {
		t.Errorf("flowCounts = %d %d %v", launched, completed, ok)
	}
	if _, _, ok := flowCounts(fixture(t, "bufsim_longlived.stdout")); ok {
		t.Error("long-lived run reported flow counts")
	}
}

func TestCacheLines(t *testing.T) {
	stderr := fixture(t, "paperexp.stderr")
	total, err := parseCacheLines(stderr)
	if err != nil || total != (cacheStats{6, 7, 7}) {
		t.Errorf("parseCacheLines = %+v, %v", total, err)
	}
	if _, err := parseCacheLines([]byte("no such line\n")); err == nil {
		t.Error("missing cache: line accepted")
	}
	if why := coldSweep(rep{stderr: []byte("cache: 0 hits, 6 misses (0% hit rate), 6 stored, 0 verified\n")}); why != "" {
		t.Errorf("cold sweep rejected: %s", why)
	}
	if why := coldSweep(rep{stderr: stderr}); why == "" {
		t.Error("sweep with hits accepted as cold")
	}
}

func TestHasTable(t *testing.T) {
	out := stableOutput(fixture(t, "paperexp_fig10.stdout"))
	if !hasTable(out, "fig10") {
		t.Error("fig10 table not found")
	}
	if hasTable(out, "red") || hasTable([]byte("=== fig10 ===\n(fig10 in 0.1s)\n"), "fig10") {
		t.Error("table found where there is none")
	}
}

func TestLastGC(t *testing.T) {
	cycles, frac := lastGC(fixture(t, "paperexp.stderr"))
	if cycles != 23 || !near(frac, 0.06) {
		t.Errorf("lastGC = %d %v", cycles, frac)
	}
	if cycles, frac := lastGC(nil); cycles != 0 || frac != 0 {
		t.Errorf("lastGC(nil) = %d %v", cycles, frac)
	}
}

func TestRegistryCombinesSweepCells(t *testing.T) {
	reg, err := parseRegistry(fixture(t, "metrics_sweep.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.sum("sim.events_processed"); got != 3000 {
		t.Errorf("sum events = %v", got)
	}
	if got := reg.sum("sim.time_seconds"); got != 30 {
		t.Errorf("sum gauge = %v", got)
	}
	if got := reg.max("sim.heap_depth_max"); got != 514 {
		t.Errorf("max heap = %v", got)
	}
	var merged registry
	merged.merge(reg)
	merged.merge(registry{Counters: map[string]float64{"red/x/sim.events_processed": 5}})
	if got := merged.sum("sim.events_processed"); got != 3005 {
		t.Errorf("merged sum = %v", got)
	}
	if _, err := parseRegistry([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
}

func TestCPUSharesByLayer(t *testing.T) {
	shares, err := cpuShares(fixture(t, "pprof_top.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.40, "tcp": 0.17, "link": 0.04, "queue": 0.03, "topology": 0.02, "workload": 0.01,
		"runtime": 0.27, "other": 0.06, "wait": 0.07,
	}
	for layer, w := range want {
		if !near(shares[layer], w) {
			t.Errorf("%s share = %v, want %v", layer, shares[layer], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v", shares)
	}
	if _, err := cpuShares([]byte("File: bufsim\nType: cpu\n")); err == nil {
		t.Error("output without a table accepted")
	}
}

func TestShardSibling(t *testing.T) {
	seq, sharded := findWorkload("longlived_1000"), findWorkload("longlived_1000_shards2")
	cmds, had := shardSibling(seq)
	if had || !reflect.DeepEqual(cmds, sharded.cmds) {
		t.Errorf("sibling of the sequential run = %v %v", cmds, had)
	}
	cmds, had = shardSibling(sharded)
	if !had || !reflect.DeepEqual(cmds, seq.cmds) {
		t.Errorf("sibling of the sharded run = %v %v", cmds, had)
	}
	if cmds, _ := shardSibling(findWorkload("sweep_cold")); len(cmds) != 2 || cmds[1][len(cmds[1])-1] != "2" {
		t.Errorf("sweep sibling = %v", cmds)
	}
}

func TestBoolArgs(t *testing.T) {
	got := boolArgs([]string{"--workload", "w", "--trace", "1", "--seed", "1", "-trace", "0", "--trace"}, "trace")
	want := []string{"--workload", "w", "-trace=1", "--seed", "1", "-trace=0", "--trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("boolArgs = %v", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	var nilTracer *tracer
	nilTracer.begin("ignored")() // tracing off must be free of side effects

	tr := &tracer{workload: "w"}
	root := tr.add("w", 0, 100)
	tr.open = append(tr.open, root)
	tr.add("rep", 10, 40)
	tr.add("rep", 50, 70)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	if s := tr.spans[root]; s.Parent != -1 || s.SelfNS != 50 {
		t.Errorf("root span = %+v, want self time 100-30-20", s)
	}
	if s := tr.spans[1]; s.Parent != root || s.SelfNS != 30 || s.Workload != "w" {
		t.Errorf("child span = %+v", s)
	}
	if data, _ := os.ReadFile(path); !strings.Contains(string(data), `"self_ns": 50`) {
		t.Errorf("spans.json = %s", data)
	}
}

func TestVerify(t *testing.T) {
	w := findWorkload("longlived_30")
	ok := rep{stdout: stableOutput(fixture(t, "bufsim_longlived.stdout"))}
	if why := w.verify(ok, ""); why != "" {
		t.Errorf("good rep rejected: %s", why)
	}
	if why := w.verify(ok, digest(ok.stdout)); why != "" {
		t.Errorf("repeated rep rejected: %s", why)
	}
	if why := w.verify(ok, digest([]byte("other"))); !strings.Contains(why, "differs") {
		t.Errorf("changed stdout accepted: %q", why)
	}
	if why := w.verify(rep{stdout: []byte("link: 60Mbps\n")}, ""); !strings.Contains(why, "measured") {
		t.Errorf("missing measured: line accepted: %q", why)
	}
	if why := w.verify(rep{err: os.ErrNotExist}, ""); why == "" {
		t.Error("failed command accepted")
	}
	sweep := findWorkload("sweep_cold")
	if why := sweep.verify(rep{stdout: stableOutput(fixture(t, "paperexp_fig10.stdout"))}, ""); !strings.Contains(why, "no red table") {
		t.Errorf("sweep without its second table: %q", why)
	}
}

// TestSpecMatchesHarness keeps BENCHMARK.json, the workload table and the
// metrics the harness can report in step.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if workloads[i].reps(float64(spec.RunSeconds)) <= workloads[i].minReps {
			t.Errorf("%s: run_seconds %d gives no more than the minimum reps", w.Name, spec.RunSeconds)
		}
	}
	e := e2e{WallS: 1, CPUS: 2, PeakRSSMB: 3, SetupS: 4}
	sawSetup := false
	for _, m := range spec.EndToEnd {
		if e.metric(m.Name) == 0 {
			t.Errorf("end-to-end metric %q is not one the harness reports", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		sawSetup = sawSetup || m.Name == "setup_s"
	}
	if !sawSetup {
		t.Error("no setup_s metric")
	}
	if len(spec.PerLayer) == 0 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(spec.PerLayer))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not mention metric %s", m.Name)
		}
	}
	for _, w := range spec.Workloads {
		if !strings.Contains(string(readme), "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
}
