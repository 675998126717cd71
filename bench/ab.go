package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// Mode ab — `go run ./bench ab -ref REV [-workload W] [-pairs 10]
// [-seed 1]`, or `make ab` — is the paired comparison a performance claim
// is judged by. The committed files of REV are extracted into a temporary
// directory with `git archive` (what the driver of BENCHMARK.json
// measures; nothing is registered in .git, so an interrupted run leaves
// nothing behind), and `bash benchmark/run.sh -workload W -seed S` runs
// alternately there and in the working tree, the side that goes first
// flipping every pair. Without -workload it does so for every workload of
// BENCHMARK.json in turn. It prints one row per run, then one summary
// table: for each workload and end-to-end metric of BENCHMARK.json both
// sides' median and quartiles, the relative change, the pairs the working
// tree won and whether the gap between the medians exceeds REV's
// interquartile spread. It fails if a rep failed or a run's stdout digest
// differs from the first run's of its workload.

// abRun is what one benchmark/run.sh invocation reported.
type abRun struct {
	metrics           map[string]float64
	digest            string
	failed, attempted int
}

// abSpec is what ab reads of BENCHMARK.json: the workloads and the
// end-to-end metrics.
type abSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []abMetric              `json:"end_to_end"`
}

// abMetric is an end-to-end metric as BENCHMARK.json declares it.
type abMetric struct {
	Name, Unit, Better string
}

type abSide struct {
	label, dir string
	runs       []abRun
}

func runAB(args []string) error {
	fs := flag.NewFlagSet("ab", flag.ExitOnError)
	ref := fs.String("ref", "", "git revision the working tree is compared against")
	name := fs.String("workload", "", "workload of BENCHMARK.json to run (default: every one)")
	pairs := fs.Int("pairs", 10, "alternating pairs of benchmark runs")
	seed := fs.Int64("seed", 1, "seed handed to benchmark/run.sh")
	fs.Parse(args)
	if *ref == "" || *pairs < 1 {
		return errors.New("usage: go run ./bench ab -ref REV [-workload NAME] [-pairs 10] [-seed 1]")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	root, err := gitOut("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	rev, err := gitOut(root, "rev-parse", "--short=12", *ref+"^{commit}")
	if err != nil {
		return err
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	workloads := []string{*name}
	if *name == "" {
		workloads = workloads[:0]
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	extract := exec.CommandContext(ctx, "bash", "-o", "pipefail", "-c", `git archive "$0" | tar -x -C "$1"`, rev, tmp)
	extract.Dir, extract.Stderr = root, os.Stderr
	if err := extract.Run(); err != nil {
		return fmt.Errorf("extracting %s: %w", rev, err)
	}

	fmt.Printf("ab: %s against the working tree, workloads %s, seed %d, %d pairs\n", rev, strings.Join(workloads, ", "), *seed, *pairs)
	var problems []string
	results := make([][2][]abRun, len(workloads))
	for w, name := range workloads {
		sides := [2]*abSide{{label: rev, dir: tmp}, {label: "working tree", dir: root}}
		fmt.Printf("\n%s\n%-5s %-13s", name, "pair", "side")
		for _, m := range spec.EndToEnd {
			fmt.Printf(" %14s", m.Name)
		}
		fmt.Printf(" %9s  %s\n", "fail/att", "stdout sha256")
		var first string
		for p := 0; p < *pairs; p++ {
			for k := 0; k < 2; k++ {
				s := sides[(p+k)%2]
				r, err := benchmarkRun(ctx, s.dir, name, *seed)
				if err != nil {
					return fmt.Errorf("%s, pair %d, %s: %w", name, p+1, s.label, err)
				}
				s.runs = append(s.runs, r)
				fmt.Printf("%-5d %-13s", p+1, s.label)
				for _, m := range spec.EndToEnd {
					fmt.Printf(" %14.4f", r.metrics[m.Name])
				}
				fmt.Printf(" %9s  %.16s\n", fmt.Sprintf("%d/%d", r.failed, r.attempted), r.digest)
				if r.failed > 0 {
					problems = append(problems, fmt.Sprintf("%s, pair %d, %s: %d of %d reps failed", name, p+1, s.label, r.failed, r.attempted))
				}
				if first == "" {
					first = r.digest
				}
				if r.digest != first {
					problems = append(problems, fmt.Sprintf("%s, pair %d, %s: stdout sha256 %.16s, the first run's %.16s", name, p+1, s.label, r.digest, first))
				}
			}
		}
		results[w] = [2][]abRun{sides[0].runs, sides[1].runs}
	}

	fmt.Printf("\n%-22s %-12s %-4s %30s %30s %8s %6s  %s\n", "workload", "metric", "unit", rev+" median [q1, q3]", "working tree median [q1, q3]", "change", "won", "gap > "+rev+" IQR")
	for w, name := range workloads {
		base, head := results[w][0], results[w][1]
		for _, m := range spec.EndToEnd {
			b, h := column(base, m.Name), column(head, m.Name)
			b1, b2, b3 := quartiles(b)
			h1, h2, h3 := quartiles(h)
			won := 0
			for i := range b {
				if m.Better == "lower" && h[i] < b[i] || m.Better != "lower" && h[i] > b[i] {
					won++
				}
			}
			gap := "no"
			if d := h2 - b2; d > b3-b1 || -d > b3-b1 {
				gap = "yes"
			}
			fmt.Printf("%-22s %-12s %-4s %30s %30s %+7.1f%% %6s  %s\n", name, m.Name, m.Unit,
				fmt.Sprintf("%.4f [%.4f, %.4f]", b2, b1, b3), fmt.Sprintf("%.4f [%.4f, %.4f]", h2, h1, h3),
				100*(h2/b2-1), fmt.Sprintf("%d/%d", won, len(b)), gap)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("ab: %s", strings.Join(problems, "; "))
	}
	return nil
}

func gitOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

func readSpec(root string) (abSpec, error) {
	var spec abSpec
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// benchmarkRun runs one workload in the checkout at dir. Its stdout holds
// the indented summary object (opened by a line that is only "{") and,
// on the last line, the result object with the gated metrics.
func benchmarkRun(ctx context.Context, dir, workload string, seed int64) (abRun, error) {
	cmd := exec.CommandContext(ctx, "bash", "benchmark/run.sh", "-workload", workload, "-seed", fmt.Sprint(seed))
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return abRun{}, fmt.Errorf("benchmark/run.sh: %w\n%s", err, stderr.Bytes())
	}
	out := stdout.Bytes()
	i := bytes.Index(out, []byte("\n{\n"))
	if i < 0 {
		return abRun{}, errors.New("benchmark/run.sh printed no summary object")
	}
	var summary struct {
		EndToEnd []struct {
			Digest string `json:"stdout_sha256"`
		} `json:"end_to_end"`
	}
	var res struct {
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	dec := json.NewDecoder(bytes.NewReader(out[i+1:]))
	if err := dec.Decode(&summary); err != nil {
		return abRun{}, fmt.Errorf("summary object: %w", err)
	}
	if err := dec.Decode(&res); err != nil {
		return abRun{}, fmt.Errorf("result object: %w", err)
	}
	if len(summary.EndToEnd) != 1 {
		return abRun{}, fmt.Errorf("summary holds %d workloads, want 1", len(summary.EndToEnd))
	}
	r := abRun{metrics: map[string]float64{}, digest: summary.EndToEnd[0].Digest, failed: res.Failed, attempted: res.Attempted}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

func column(runs []abRun, name string) []float64 {
	v := make([]float64, len(runs))
	for i, r := range runs {
		v[i] = r.metrics[name]
	}
	return v
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) ("exclusive"), the spread the benchmark's
// acceptance check uses; q2 is the median. One value is all three.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
