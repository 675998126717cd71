package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"bufsim"
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
// dir, so each still decodes but no longer matches a recomputation. It
// returns how many it rewrote.
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
		var res map[string]any
		if json.Unmarshal(blob, &res) != nil || res["Utilization"] == nil {
			return nil // a manifest, not a result
		}
		res["Utilization"] = 0.123456
		if blob, err = json.Marshal(res); err != nil {
			return err
		}
		n++
		return os.WriteFile(path, blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

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
// run is an error naming the flag, raised before the sizing rules print.
// A zero window used to print as 0s and run the default, a zero or
// negative -buffer-factor to run one packet, a negative -workload-load no
// flows, and a zero -workload-flow-length to fail inside the profile.
func TestBadFlagsFailBeforePrinting(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-measure", "0s"}, "-measure: must be positive"},
		{[]string{"-warmup", "0s"}, "-warmup: must be positive"},
		{[]string{"-buffer-factor", "0"}, "-buffer-factor: must be positive"},
		{[]string{"-buffer-factor", "-1"}, "-buffer-factor: must be positive"},
		{[]string{"-rtt-spread", "-1ms"}, "-rtt-spread: must not be negative"},
		{[]string{"-workload", "constant", "-workload-load", "-1"}, "-workload-load: must be positive"},
		{[]string{"-workload", "constant", "-workload-flow-length", "0"}, "-workload-flow-length: must be positive"},
	} {
		stdout, stderr, err := execMain(append([]string{"-rate", "20Mbps", "-flows", "10"}, c.args...)...)
		if err == nil || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("bufsim %v: err %v, stderr %q, stdout %q; want a failure saying %q and no stdout",
				c.args, err, stderr, stdout, c.want)
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
