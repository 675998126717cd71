package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bufsim"
	"bufsim/internal/metrics"
)

// TestCacheVerifyFailsEveryScenario plants a cache entry that recomputes
// differently under each of the three scenarios the binary runs and
// requires every one of them to fail on it. The three used to carry
// their own copy of the observer epilogue, and the -workload copy never
// looked at the verification failures: bufsim -workload constant
// -cache-verify exited 0 on a blob that did not match.
func TestCacheVerifyFailsEveryScenario(t *testing.T) {
	s := bufsim.Scenario{
		Seed: 1, Link: bufsim.Link{Rate: 10 * bufsim.Mbps, RTT: 100 * bufsim.Millisecond},
		BufferPackets: 20, Warmup: bufsim.Second, Measure: 2 * bufsim.Second,
	}
	scenarios := map[string]func(observers) error{
		"long-lived": func(obs observers) error {
			return runAndPrint(s, bufsim.LongLived{Flows: 5, RTTSpread: 40 * bufsim.Millisecond}, obs)
		},
		"-adversary": func(obs observers) error {
			return runAdversaryAndPrint("pulse", s, 4, false, obs)
		},
		"-workload": func(obs observers) error {
			return runProfileAndPrint(profileArgs{"constant", 0.5, 10}, s, 3, false, obs)
		},
	}
	for name, run := range scenarios {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := bufsim.OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(observers{cache: cache}); err != nil {
				t.Fatalf("cold run: %v", err)
			}
			if n := spoilResults(t, dir); n == 0 {
				t.Fatal("the cold run stored nothing to spoil")
			}
			cache.SetVerifySample(1)
			err = run(observers{cache: cache})
			if err == nil || !strings.Contains(err.Error(), "cache-verify") {
				t.Errorf("run over a spoiled entry returned %v, want a cache-verify error", err)
			}
		})
	}
}

// spoilResults rewrites the utilization in every result stored under
// dir, in place, so each is still the blob its result type writes — a
// hit — but no longer matches a recomputation. It returns how many it
// rewrote.
func spoilResults(t *testing.T, dir string) (n int) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		spoiled := utilization.ReplaceAll(blob, []byte(`"Utilization":0.123456`))
		if bytes.Equal(spoiled, blob) {
			return nil // not a result with a utilization
		}
		n++
		return os.WriteFile(path, spoiled, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// utilization matches a result's utilization field in its stored JSON.
var utilization = regexp.MustCompile(`"Utilization":[0-9.e+-]+`)

// TestMain lets a test run the binary itself: with BUFSIM_MAIN set, the
// test executable is bufsim, its arguments the command line.
func TestMain(m *testing.M) {
	if os.Getenv("BUFSIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs bufsim with args in a child process and returns its
// stdout and stderr.
func runMain(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := execMain(args...)
	if err != nil {
		t.Fatalf("bufsim %s: %v\n%s", strings.Join(args, " "), err, stderr)
	}
	return stdout, stderr
}

func execMain(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BUFSIM_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestBadFlagsFailBeforePrinting: a flag value that cannot describe the
// run is an error naming the flag, or the field bufsim.Check found at
// fault, raised before the sizing rules print.
// A zero window used to print as 0s and run the default, a zero or
// negative -buffer-factor to run one packet, a negative -workload-load no
// flows, a zero -workload-flow-length to fail inside the profile, and a
// station RTT too short for the bottleneck delay (the long-lived run's
// at -rtt, the workload's at 0.6 x -rtt) to fail after seven lines.
func TestBadFlagsFailBeforePrinting(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-measure", "0s"}, "-measure: must be positive"},
		{[]string{"-warmup", "0s"}, "-warmup: must be positive"},
		{[]string{"-buffer-factor", "0"}, "-buffer-factor: must be positive"},
		{[]string{"-buffer-factor", "-1"}, "-buffer-factor: must be positive"},
		{[]string{"-rtt-spread", "-1ms"}, "LongLived.RTTSpread"},
		{[]string{"-workload", "constant", "-workload-load", "-1"}, "-workload-load: must be positive"},
		{[]string{"-workload", "constant", "-workload-flow-length", "0"}, "-workload-flow-length: must be positive"},
		{[]string{"-rate", "100Kbps", "-rtt", "20ms", "-rtt-spread", "0s"}, "Scenario.Link.Rate"},
		{[]string{"-rate", "1Mbps", "-flows", "2", "-rtt", "8ms", "-rtt-spread", "0s", "-warmup", "1s", "-measure", "1s"}, "Scenario.Link.RTT"},
		{[]string{"-rate", "10Mbps", "-flows", "5", "-rtt", "30ms", "-workload", "constant", "-warmup", "1s", "-measure", "1s"}, "Scenario.Link.RTT"},
	} {
		stdout, stderr, err := execMain(append([]string{"-rate", "20Mbps", "-flows", "10"}, c.args...)...)
		if err == nil || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("bufsim %v: err %v, stderr %q, stdout %q; want a failure saying %q and no stdout",
				c.args, err, stderr, stdout, c.want)
		}
	}
}

// TestShortRTTFailsWithoutPanic: a station RTT too short to hold the
// bottleneck delay both ways is the run's error, naming the field, not a
// panic inside the topology: the long-lived bed's stations at -rtt, and
// the workload bed's at 0.6 x -rtt.
func TestShortRTTFailsWithoutPanic(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "1Mbps", "-flows", "2", "-rtt", "8ms", "-rtt-spread", "0s", "-warmup", "1s", "-measure", "1s"},
		{"-rate", "10Mbps", "-flows", "5", "-rtt", "30ms", "-workload", "constant", "-warmup", "1s", "-measure", "1s"},
	} {
		_, stderr, err := execMain(args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr, "Scenario.Link.RTT") || strings.Contains(stderr, "panic:") {
			t.Errorf("bufsim %v: err %v, stderr %q; want exit 1 naming Scenario.Link.RTT and no panic", args, err, stderr)
		}
	}
}

// TestShardsFlagIsIgnored: -shards still parses, so old command lines
// (the repository benchmark's among them) run, but it changes nothing on
// stdout and says once on stderr that it is ignored.
func TestShardsFlagIsIgnored(t *testing.T) {
	args := []string{"-rate", "20Mbps", "-flows", "20", "-warmup", "2s", "-measure", "5s"}
	wantOut, wantErr := runMain(t, args...)
	if wantOut == "" {
		t.Fatal("the run printed nothing")
	}
	gotOut, gotErr := runMain(t, append(args, "-shards", "2")...)
	if gotOut != wantOut {
		t.Errorf("-shards 2 changed stdout:\n%s\nwant\n%s", gotOut, wantOut)
	}
	first, rest, _ := strings.Cut(gotErr, "\n")
	if rest != wantErr || !strings.Contains(first, "-shards 2 ignored") {
		t.Errorf("-shards 2 stderr = %q, want one line saying the flag is ignored, then the run's own %q", gotErr, wantErr)
	}
}

// TestChurnTelemetryCountsRetiredFlows: the short flows of a churn run
// hand their agents on as they finish, and the tcp.* counters still count
// every flow the run carried. They are pinned at the values the run gave
// when every flow had agents of its own, and so is the congestion-window
// histogram: one observation per ACK and per timeout of every sender,
// renewed ones included.
func TestChurnTelemetryCountsRetiredFlows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	runMain(t, "-seed", "1", "-rate", "100Mbps", "-flows", "50", "-workload", "constant", "-red", "-variant", "sack",
		"-warmup", "1s", "-measure", "6s", "-metrics", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Counters   map[string]int64
		Histograms map[string]metrics.HistogramSnapshot
	}
	if err := json.Unmarshal(data, &reg); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"tcp.acks_received":     115789,
		"tcp.dup_acks_received": 15900,
		"tcp.ecn_reductions":    0,
		"tcp.fast_recoveries":   3388,
		"tcp.flows.sack":        5367,
		"tcp.flows_tracked":     5367,
		"tcp.retransmits":       6829,
		"tcp.segments_sent":     123632,
		"tcp.timeouts":          1876,
	}
	for name, n := range reg.Counters {
		if _, ok := want[name]; !ok && strings.HasPrefix(name, "tcp.") {
			t.Errorf("unpinned counter %s = %d", name, n)
		}
	}
	for name, n := range want {
		if got, ok := reg.Counters[name]; !ok || got != n {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, n)
		}
	}
	cwnd := reg.Histograms["tcp.cwnd_segments"]
	if cwnd.Count != 117665 || cwnd.Sum != 1213954.0749660602 {
		t.Errorf("tcp.cwnd_segments count %d sum %v, want 117665 and 1213954.0749660602", cwnd.Count, cwnd.Sum)
	}
	wantBuckets := []int64{1876, 4173, 29861, 28760, 31372, 17584, 4034, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if len(cwnd.Buckets) != len(wantBuckets) {
		t.Fatalf("tcp.cwnd_segments has %d buckets, want %d", len(cwnd.Buckets), len(wantBuckets))
	}
	for i, b := range cwnd.Buckets {
		if b.Count != wantBuckets[i] {
			t.Errorf("tcp.cwnd_segments bucket le=%v holds %d, want %d", b.UpperBound, b.Count, wantBuckets[i])
		}
	}
}

// TestWorkloadFileWithoutSuffix: -workload reads a profile file by any
// name, as paperexp's -workload does, not only one ending in .json.
func TestWorkloadFileWithoutSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plateau")
	body := `{"name": "plateau", "arrival": [{"t": "0s", "v": 1}, {"t": "1s", "v": 0.5}], "population": [{"t": "0s", "v": 1}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _ := runMain(t, "-rate", "10Mbps", "-flows", "3", "-workload", path, "-warmup", "1s", "-measure", "1s")
	if !strings.Contains(stdout, `simulating "plateau" workload`) {
		t.Errorf("bufsim -workload %s did not run the file's profile:\n%s", path, stdout)
	}
}
