package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/runcache"
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
	published := func(id string) bool {
		for name := range snap.Counters {
			if strings.HasPrefix(name, id+"/") {
				return true
			}
		}
		return false
	}
	for _, e := range experiment.Catalog {
		// Probing is not a simulation: its registry is legitimately empty.
		if e.ID != "fig8" && e.ID != "probe" && !published(e.ID) {
			t.Errorf("-metrics holds nothing under %s/", e.ID)
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
// rows zero), so runAll must report the experiment as interrupted, name
// -resume, and leave it out of the run manifest — or the -resume run
// would skip it for good and never print its real table.
func TestInterruptedRunIsNotMarkedDone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real (scaled) sweep")
	}
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := runner{quick: true, seed: 1, env: experiment.RunEnv{Ctx: ctx, Cache: store, Parallelism: 1}}
	ids := []string{"fig10", "probe"}

	err = r.runAll(ids)
	if err == nil {
		t.Fatal("runAll under a cancelled context reported success")
	}
	for _, want := range []string{"interrupted during fig10", "-resume"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}

	// Nothing on disk may say fig10 finished.
	manifests, _ := filepath.Glob(filepath.Join(store.Dir(), "runs", "*.json"))
	for _, m := range manifests {
		if data, _ := os.ReadFile(m); strings.Contains(string(data), "fig10") {
			t.Errorf("run manifest %s records the interrupted experiment as done: %s", m, data)
		}
	}

	// The rerun a user would make: same ids, -resume, nothing cancelled.
	// fig10 must run for real this time, not be skipped as done.
	r.env.Ctx, r.env.Resume = context.Background(), true
	out := captureStdout(t, func() {
		if err := r.runAll(ids); err != nil {
			t.Fatalf("resumed runAll: %v", err)
		}
	})
	if strings.Contains(out, "done in a previous run") {
		t.Errorf("the interrupted experiment was skipped on resume:\n%s", out)
	}
	if !strings.Contains(out, "(fig10 in ") || !strings.Contains(out, "(probe in ") {
		t.Errorf("resumed run did not finish both experiments:\n%s", out)
	}
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
