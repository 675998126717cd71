package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
	"bufsim/internal/units"
)

// TestRunnerQuickExperiments drives the catalog end to end in quick
// mode, with CSV, SVG and -metrics output, exactly as a user would (all
// but fig8, whose bisections cost the most and whose telemetry pass has
// its own test). Guards the CLI plumbing: id dispatch, file writing, and
// every row running under the telemetry env — 13 ids used to leave the
// -metrics file empty.
func TestRunnerQuickExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (scaled) experiments")
	}
	dir := t.TempDir()
	r := runner{quick: true, seed: 1, csvDir: filepath.Join(dir, "csv"), svgDir: filepath.Join(dir, "svg"), metrics: metrics.New()}

	for _, e := range experiment.Catalog {
		if e.ID == "fig8" {
			continue
		}
		if err := r.run(e.ID); err != nil {
			t.Fatalf("run(%q): %v", e.ID, err)
		}
	}
	snap := r.metrics.Snapshot()
	// Every simulation publishes its kernel's event count, so a row whose
	// runs reach the registry has one under its id — directly, or under a
	// sweep cell's label.
	published := func(id string) bool {
		for name := range snap.Counters {
			if strings.HasPrefix(name, id+"/") && strings.HasSuffix(name, "/sim.events_processed") {
				return true
			}
		}
		return false
	}
	for _, e := range experiment.Catalog {
		// Probing is not a simulation: its registry is legitimately empty.
		if e.ID != "fig8" && e.ID != "probe" && !published(e.ID) {
			t.Errorf("-metrics holds no sim.events_processed under %s/", e.ID)
		}
	}

	// The figure-producing ids must have written their artifacts.
	for _, want := range []string{
		"csv/fig2_rule_of_thumb.csv",
		"svg/fig2_rule_of_thumb.svg",
		"csv/fig6_window_distribution.csv",
		"svg/fig6_window_distribution.svg",
		"csv/ccfamilies_min_buffer.csv",
		"svg/ccfamilies_min_buffer.svg",
		"csv/adversarial_pulse.csv",
		"csv/adversarial_aimdsync.csv",
		"csv/adversarial_parkinglot.csv",
	} {
		path := filepath.Join(dir, want)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing artifact %s: %v", want, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", want)
		}
		if strings.HasSuffix(want, ".svg") && !strings.Contains(string(data), "<svg") {
			t.Errorf("artifact %s is not SVG", want)
		}
		if strings.HasSuffix(want, ".csv") && !strings.Contains(string(data), "time_s") {
			t.Errorf("artifact %s has no CSV header", want)
		}
	}
}

// TestMultiRunCellsPublishEachRun: the rows whose sweep cells run more
// than one simulation (pacing: paced and unpaced; rttspread: the window
// run and the utilization run; ccfamilies: ceiling, every search probe
// and the rule run) publish each simulation under its own prefix, so a
// bottleneck's sojourn histogram counts exactly the packets its queue
// says it dequeued. Sharing the cell's registry, the histograms summed
// every run while the counters kept the last run's value.
func TestMultiRunCellsPublishEachRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real (scaled) experiments")
	}
	for _, id := range []string{"pacing", "rttspread", "ccfamilies"} {
		r := runner{quick: true, seed: 1, metrics: metrics.New()}
		if err := r.run(id); err != nil {
			t.Fatalf("run(%q): %v", id, err)
		}
		snap := r.metrics.Snapshot()
		checked := 0
		for name, h := range snap.Histograms {
			prefix, ok := strings.CutSuffix(name, ".sojourn_ms")
			if !ok {
				continue
			}
			checked++
			if deq, ok := snap.Counters[prefix+".dequeued_packets"]; !ok || deq != h.Count {
				t.Errorf("%s: %d sojourn observations, %s.dequeued_packets = %d (present %v)", name, h.Count, prefix, deq, ok)
			}
		}
		if checked == 0 {
			t.Errorf("%s: -metrics holds no sojourn histogram", id)
		}
	}
}

// TestRunnerAdversaryFlag covers the -adversary pattern filter: a bad
// name fails fast, a valid one restricts the sweep to that pattern.
func TestRunnerAdversaryFlag(t *testing.T) {
	r := runner{quick: true, seed: 1, adversary: "no-such-pattern"}
	if err := r.run("adversarial"); err == nil {
		t.Error("bad -adversary pattern did not error")
	}
	if testing.Short() {
		t.Skip("runs a real (scaled) sweep")
	}
	r.adversary = "pulse"
	if err := r.run("adversarial"); err != nil {
		t.Fatalf("run(adversarial) with -adversary pulse: %v", err)
	}
}

func TestRunnerUnknownID(t *testing.T) {
	r := runner{quick: true}
	err := r.run("fig99")
	if err == nil {
		t.Fatal("unknown experiment id did not error")
	}
	for _, e := range experiment.Catalog {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("error %q does not name the id %q", err, e.ID)
		}
	}
}

// TestInterruptedRunIsNotMarkedDone covers what SIGINT turns into: a
// cancelled context. The sweeps return normally under it (unfinished
// rows zero), so runAll must report the experiment as interrupted and
// point at -cache; and the rerun a user would then make, the same ids on
// the same cache, must print the uninterrupted run's tables — the
// finished points replayed, the rest simulated, nothing skipped.
func TestInterruptedRunIsNotMarkedDone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (scaled) sweep")
	}
	ids := []string{"fig10", "probe"}
	want := tables(captureStdout(t, func() {
		if err := (runner{quick: true, seed: 1}).runAll(ids); err != nil {
			t.Fatalf("uninterrupted runAll: %v", err)
		}
	}))

	dir := t.TempDir()
	store, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	store.OnPut = func(string) { cancel() } // interrupted after its first point
	r := runner{quick: true, seed: 1, env: experiment.RunEnv{Ctx: ctx, Cache: store, Parallelism: 1}}
	captureStdout(t, func() { err = r.runAll(ids) })
	if err == nil {
		t.Fatal("runAll under a cancelled context reported success")
	}
	for _, want := range []string{"interrupted during fig10", "-cache"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// The rerun: a fresh store over the same directory, nothing cancelled.
	if r.env.Cache, err = runcache.Open(dir); err != nil {
		t.Fatal(err)
	}
	r.env.Ctx = context.Background()
	got := tables(captureStdout(t, func() {
		if err := r.runAll(ids); err != nil {
			t.Fatalf("rerun after the interrupt: %v", err)
		}
	}))
	if got != want {
		t.Errorf("rerun after the interrupt printed\n%s\nwant the uninterrupted run's\n%s", got, want)
	}
	if hits := r.env.Cache.Stats().Hits; hits == 0 {
		t.Error("rerun replayed nothing from the interrupted run's cache")
	}
}

// tables drops the parenthesised timing lines from paperexp's stdout.
func tables(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "(") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// captureStdout returns what fn printed to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestMain lets a test run the binary itself: with PAPEREXP_MAIN set, the
// test executable is paperexp, its arguments the command line.
func TestMain(m *testing.M) {
	if os.Getenv("PAPEREXP_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs paperexp with args in a child process and returns its
// stdout and stderr.
func runMain(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAPEREXP_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("paperexp %s: %v\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestShardsFlagIsIgnored: -shards still parses, so old command lines
// run, but it changes no table on stdout and says once on stderr that it
// is ignored. (The parenthesised timing lines differ between any two
// runs.)
func TestShardsFlagIsIgnored(t *testing.T) {
	args := []string{"-quick", "-exp", "fig2"}
	wantOut, wantErr := runMain(t, args...)
	if wantOut == "" {
		t.Fatal("the run printed nothing")
	}
	gotOut, gotErr := runMain(t, append(args, "-shards", "2")...)
	if tables(gotOut) != tables(wantOut) {
		t.Errorf("-shards 2 changed stdout:\n%s\nwant\n%s", gotOut, wantOut)
	}
	first, rest, _ := strings.Cut(gotErr, "\n")
	if rest != wantErr || !strings.Contains(first, "-shards 2 ignored") {
		t.Errorf("-shards 2 stderr = %q, want one line saying the flag is ignored, then the run's own %q", gotErr, wantErr)
	}
}

// TestShortFlowsWritesCSV: Fig. 8 writes its curves as CSV next to the
// SVG, one column per link rate plus the M/G/1 model. It draws from a
// synthetic table: a real fig8 run is the catalog's most expensive.
func TestShortFlowsWritesCSV(t *testing.T) {
	var table experiment.ShortFlowBufferTable
	for _, rate := range []units.BitRate{20 * units.Mbps, 100 * units.Mbps} {
		for i, n := range []int64{2, 14, 62} {
			table = append(table, experiment.ShortFlowBufferPoint{
				Rate: rate, FlowLen: n,
				MinBuffer:   int(rate/units.Mbps)/10 + i,
				ModelBuffer: float64(n) / 4,
			})
		}
	}
	dir := t.TempDir()
	r := runner{csvDir: filepath.Join(dir, "csv"), svgDir: filepath.Join(dir, "svg")}
	if err := r.shortFlows(table); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "csv", "fig8_short_flow_buffer.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "time_s,20Mbps,100Mbps,mg1_model\n" +
		"2.000000,2,10,0.5\n" +
		"14.000000,3,11,3.5\n" +
		"62.000000,4,12,15.5\n"
	if string(got) != want {
		t.Errorf("fig8 CSV =\n%s\nwant\n%s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "svg", "fig8_short_flow_buffer.svg")); err != nil {
		t.Errorf("fig8 SVG not written: %v", err)
	}
}

// TestCCFamiliesSimulateEachCeilingOnce: a ccfamilies grid point measures
// its ceiling at the search's upper bound, and the bisection reuses that
// run instead of probing the bound again, so no search/buffer=<hi>
// registry repeats ceiling/. Likewise the rule run publishes rule/ only
// when the search did not probe the rule buffer. The table is
// quick_all.txt's, byte for byte.
func TestCCFamiliesSimulateEachCeilingOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (scaled) sweep")
	}
	e, err := experiment.Lookup("ccfamilies")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	res := e.Run(true, 1, experiment.RunEnv{Metrics: reg}).(experiment.CCFamilyTable)
	golden, err := os.ReadFile(filepath.Join("testdata", "quick_all.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(golden), "=== ccfamilies ===\n")
	if !strings.HasPrefix(section, res.Table()) {
		t.Errorf("ccfamilies table moved:\n%s\nquick_all.txt has:\n%s", res.Table(), section)
	}
	snap := reg.Snapshot()
	for _, p := range res {
		hi := max(2*p.BDPPackets, 4*p.SqrtRule, 4)
		cell := fmt.Sprintf("variant=%s,n=%d/", p.Variant, p.N)
		if _, ok := snap.Counters[cell+"ceiling/sim.events_processed"]; !ok {
			t.Fatalf("%s: no ceiling/ registry", cell)
		}
		if n, ok := snap.Counters[fmt.Sprintf("%ssearch/buffer=%d/sim.events_processed", cell, hi)]; ok {
			t.Errorf("%s: the search simulated its bound %d again (%d events)", cell, hi, n)
		}
		_, probed := snap.Counters[fmt.Sprintf("%ssearch/buffer=%d/sim.events_processed", cell, p.SqrtRule)]
		if _, rule := snap.Counters[cell+"rule/sim.events_processed"]; rule == probed {
			t.Errorf("%s: rule/ registry %v, rule buffer %d probed by the search %v: want exactly one", cell, rule, p.SqrtRule, probed)
		}
	}
}
