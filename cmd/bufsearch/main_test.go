package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the binary itself: with BUFSEARCH_MAIN set,
// the test executable is bufsearch, its arguments the command line.
func TestMain(m *testing.M) {
	if os.Getenv("BUFSEARCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// execMain runs bufsearch with args in a child process.
func execMain(args ...string) (stdout, stderr string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BUFSEARCH_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// tiny is a search small enough for a test: a 1 Mb/s link, two flows and
// one simulated second per probe.
var tiny = []string{"-rate", "1Mbps", "-flows", "2", "-warmup", "1s", "-measure", "1s"}

// TestBadFlagsFailBeforePrinting: a flag value that cannot describe the
// search is an error naming the flag, or the bufsim.Scenario or
// LongLived field bufsim.Check found at fault, raised before the first
// line prints. An RTT spread wider than twice the RTT, an RTT too short for
// the bottleneck delay, a link that carries no segment per RTT and a
// negative segment used to panic inside the simulator, a zero window to
// print as 0s and run the default one, and a negative warm-up or replica
// count to run.
func TestBadFlagsFailBeforePrinting(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-rtt", "100ms", "-rtt-spread", "250ms"}, "LongLived.RTTSpread"},
		{[]string{"-rtt", "0s"}, "Scenario.Link.RTT"},
		{[]string{"-rtt", "8ms", "-rtt-spread", "0s"}, "Scenario.Link.RTT"},
		{[]string{"-rate", "100Kbps", "-rtt", "10ms", "-rtt-spread", "0s"}, "Scenario.Link.Rate"},
		{[]string{"-segment", "-100"}, "Scenario.Link.SegmentSize"},
		{[]string{"-measure", "0s"}, "-measure: must be positive"},
		{[]string{"-warmup", "-1s"}, "-warmup: must be positive"},
		{[]string{"-target", "1"}, "-target: must be in (0, 1)"},
		{[]string{"-replicas", "-1"}, "-replicas: must not be negative"},
		{[]string{"-parallel", "-1"}, "-parallel: must not be negative"},
		{[]string{"-measure", "soon"}, "-measure: units:"},
	} {
		stdout, stderr, err := execMain(append(append([]string{}, tiny...), c.args...)...)
		if err == nil || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("bufsearch %v: err %v, stderr %q, stdout %q; want a failure saying %q and no stdout",
				c.args, err, stderr, stdout, c.want)
		}
	}
}

// TestTinySearch runs one search end to end and confirms its answer on
// one seed: -replicas k runs k seeds from -seed up, so 1 is the search's
// own seed.
func TestTinySearch(t *testing.T) {
	stdout, stderr, err := execMain(append(append([]string{}, tiny...), "-replicas", "1")...)
	if err != nil {
		t.Fatalf("bufsearch: %v\n%s", err, stderr)
	}
	for _, want := range []string{"\nminimum buffer: ", "\nacross 1 seeds: utilization "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}
