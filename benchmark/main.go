// Command benchmark is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the root). It builds cmd/bufsim and
// cmd/paperexp from the checkout and drives them as child processes; it
// imports nothing of the simulator, so no refactor inside can break it.
//
//	bash benchmark/run.sh                      every workload end to end
//	bash benchmark/run.sh -workload NAME       one workload; last line is the result object
//	bash benchmark/run.sh -trace [-workload N] the traced run: per-layer metrics, out/spans.json
//	bash benchmark/run.sh -aa 5                A/A check: two interleaved sets of 5 passes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// report is the JSON summary printed after the tables. This benchmark
// claims no gain, so Claim is always null; a later change that claims one
// is measured with it, not by it.
type report struct {
	Environment environment   `json:"environment"`
	BuildS      float64       `json:"harness.build_s"`
	EndToEnd    []e2e         `json:"end_to_end,omitempty"`
	PerLayer    []layerReport `json:"per_layer,omitempty"`
	Claim       *string       `json:"claim"`
}

// value and result are the object the last line of stdout carries when one
// workload is run.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// boolArgs lets "-trace 1" and "-trace 0" be written with a space, which
// the flag package does not accept for a boolean.
func boolArgs(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-"+name || args[i] == "--"+name) && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-"+name+"="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func main() {
	name := flag.String("workload", "", "run only this workload and end with the result object (default: all)")
	seed := flag.Int64("seed", 1, "simulation seed handed to every child")
	seconds := flag.Float64("seconds", 0, "length of a workload's timed phase on the reference box (default: run_seconds of BENCHMARK.json)")
	traced := flag.Bool("trace", false, "the traced run: per-layer metrics instead of end-to-end ones")
	aa := flag.Int("aa", 0, "A/A check: two interleaved sets of this many end-to-end passes, judged against the bounds")
	flag.CommandLine.Parse(boolArgs(os.Args[1:], "trace"))
	if err := run(*name, *seed, *seconds, *traced, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, aa int) error {
	h, err := newHarness(seed)
	if err != nil {
		return err
	}
	spec, err := loadSpec(h.root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	selected := workloads
	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{*w}
	}
	if err := h.buildCLIs(); err != nil {
		return err
	}
	rep := report{Environment: h.environment(seconds), BuildS: h.buildS}
	failed := 0

	switch {
	case aa > 0:
		env, err := json.MarshalIndent(rep.Environment, "", " ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", env)
		return h.aaCheck(spec, selected, seconds, aa)
	case traced:
		h.tr = &tracer{t0: time.Now()}
		for i := range selected {
			lr := h.trace(&selected[i])
			failed += lr.Failed
			rep.PerLayer = append(rep.PerLayer, lr)
		}
		spans := filepath.Join(h.out, "spans.json")
		if err := h.tr.write(spans); err != nil {
			return err
		}
		printLayers(spec, rep.PerLayer)
		fmt.Printf("spans: %d written to %s\n\n", len(h.tr.spans), spans)
	default:
		for i := range selected {
			w := &selected[i]
			e := h.measure(w, w.warmups, w.reps(seconds))
			failed += e.Failed
			rep.EndToEnd = append(rep.EndToEnd, e)
		}
		printEndToEnd(spec, rep.EndToEnd, h.buildS)
	}

	summary, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", summary)
	if name == "" {
		if failed > 0 {
			return fmt.Errorf("%d reps failed", failed)
		}
		return nil
	}

	// One workload: the result object is the last line.
	res := result{Metrics: map[string]value{}}
	if traced {
		lr := rep.PerLayer[0]
		res.Correct, res.Attempted, res.Failed = lr.Failed == 0, lr.Attempted, lr.Failed
		for _, m := range spec.PerLayer {
			res.Metrics[m.Name] = value{lr.Metrics[m.Name], m.Unit}
		}
	} else {
		e := rep.EndToEnd[0]
		res.Correct, res.Attempted, res.Failed = e.Failed == 0, e.Attempted, e.Failed
		for _, m := range spec.EndToEnd {
			res.Metrics[m.Name] = value{e.metric(m.Name), m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// metric returns a gated end-to-end metric by its BENCHMARK.json name.
func (e e2e) metric(name string) float64 {
	switch name {
	case "wall_s":
		return e.WallS
	case "cpu_s":
		return e.CPUS
	case "peak_rss_mb":
		return e.PeakRSSMB
	case "setup_s":
		return e.SetupS
	}
	return 0
}

func printEndToEnd(spec benchSpec, rows []e2e, buildS float64) {
	fmt.Printf("end-to-end metrics (tracing off; harness.build_s %.2f)\n", buildS)
	fmt.Printf("%-24s", "workload")
	for _, m := range spec.EndToEnd {
		fmt.Printf(" %16s", m.Name+" ["+m.Unit+"]")
	}
	fmt.Printf(" %9s %5s %3s %3s %10s  %s\n", "fail/att", "procs", "W", "R", "rep_spread", "stdout sha256")
	for _, e := range rows {
		fmt.Printf("%-24s", e.Workload)
		for _, m := range spec.EndToEnd {
			fmt.Printf(" %16.4f", e.metric(m.Name))
		}
		fmt.Printf(" %9s %5d %3d %3d %10.3f  %.16s\n", fmt.Sprintf("%d/%d", e.Failed, e.Attempted), e.GOMAXPROCS, e.W, e.R, e.RepSpread, e.Digest)
	}
	fmt.Println()
}

func printLayers(spec benchSpec, cols []layerReport) {
	fmt.Println("per-layer metrics (traced run)")
	fmt.Printf("%-34s %-8s", "metric", "unit")
	for _, c := range cols {
		fmt.Printf(" %22s", c.Workload)
	}
	fmt.Println()
	for _, m := range spec.PerLayer {
		fmt.Printf("%-34s %-8s", m.Name, m.Unit)
		for _, c := range cols {
			fmt.Printf(" %22.6g", c.Metrics[m.Name])
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %-8s", "stdout sha256", "")
	for _, c := range cols {
		fmt.Printf(" %22.16s", c.Digest)
	}
	fmt.Print("\n\n")
}
