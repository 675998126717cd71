// Command bench measures the discrete-event kernel and the end-to-end
// simulations built on it, and writes the numbers to a JSON file so the
// perf trajectory is tracked in-repo from PR to PR.
//
//	go run ./bench -out BENCH_kernel.json [-baseline prev.json]
//
// Six benchmarks run:
//
//   - kernel_churn: raw scheduler throughput — schedule + fire with a
//     rolling window of pending timers, the pattern simulations produce.
//   - kernel_lanes / kernel_lanes_heap: 2000 wires x 16 packets in flight
//     through sim.Lane, and the same pattern with every packet its own
//     heap entry (PostAfter) — what the lanes buy at a 32k-event backlog.
//   - kernel_imminent: a token passed round 2000 actors, each post due
//     1-500 ns ahead over a backlog of 2000 far timers — a link's opTxDone,
//     the events the near run is for.
//   - sim_long_lived: one full long-lived-flow experiment (the paper's
//     core scenario), the end-to-end number the ROADMAP's "as fast as the
//     hardware allows" goal is judged by.
//   - sim_short_flows: one Poisson short-flow experiment, which stresses
//     flow setup/teardown as well as the kernel.
//
// Every benchmark is measured three times and the fastest run is kept
// (see runsPerCell).
//
// -baseline copies the named file's "current" block into the new file's
// "baseline" block, so a checked-in BENCH_kernel.json carries the
// before/after comparison across a kernel change.
//
// -gate compares the fresh numbers against the named file's "current"
// block and exits non-zero if any benchmark's events/sec fell by more
// than -gate-pct percent (default 5), if its allocs/op rose by more than
// 1%, or if its events/op is not the gate file's. CI runs this against the checked-in BENCH_kernel.json so an
// abstraction change (say, an interface on the per-ACK path) cannot
// silently tax the kernel. The speed half depends on the machine; the
// other two do not — the simulations are deterministic, so events/op
// repeats exactly and allocs/op to within a handful of runtime-internal
// allocations on any box; a packet path that starts allocating again
// moves allocs/op by tens of thousands, and a change that schedules one
// event more or fewer has changed what is simulated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/metrics"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// Metric is one benchmark's headline numbers.
type Metric struct {
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerOp  int64   `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// Block is one kernel generation's set of benchmarks.
type Block struct {
	Kernel     string            `json:"kernel"`
	Benchmarks map[string]Metric `json:"benchmarks"`
}

// File is the BENCH_kernel.json schema.
type File struct {
	Note       string `json:"note"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitRev     string `json:"git_rev"`
	Baseline   *Block `json:"baseline,omitempty"`
	Current    Block  `json:"current"`
}

// runsPerCell is how many times each benchmark is measured; the fastest
// run is the one reported and gated. Noise only ever adds time, and on a
// shared runner one measurement moves 15-20% between invocations — far
// more than the 5% the gates bound — while the fastest of three repeats
// to a few percent.
const runsPerCell = 3

// fastestOf is testing.Benchmark repeated runsPerCell times, keeping the
// run with the lowest ns/op.
func fastestOf(fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < runsPerCell; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// gitRev names the commit the numbers were measured on, "+dirty" when the
// working tree differs from it, or "unknown" outside a git checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "+dirty"
	}
	return rev
}

func metric(r testing.BenchmarkResult, eventsPerOp int64) Metric {
	m := Metric{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: int64(r.AllocsPerOp()),
		BytesPerOp:  int64(r.AllocedBytesPerOp()),
		EventsPerOp: eventsPerOp,
	}
	if eventsPerOp > 0 && m.NsPerOp > 0 {
		m.EventsPerSec = float64(eventsPerOp) / (m.NsPerOp / 1e9)
	}
	return m
}

func longLivedConfig() experiment.LongLivedConfig {
	return experiment.LongLivedConfig{
		Seed: 1, N: 30, BufferPackets: 50,
		Path: experiment.Path{BottleneckRate: 20 * units.Mbps, Warmup: 5 * units.Second, Measure: 15 * units.Second},
	}
}

// shortFlowConfig is the paper's short-flow scenario: the profile body
// under a stationary Poisson source of 14-segment flows.
func shortFlowConfig() experiment.ProfileRunConfig {
	return experiment.ProfileRunConfig{
		Seed: 1, BufferPackets: 50,
		Path: experiment.Path{BottleneckRate: 20 * units.Mbps, Warmup: 3 * units.Second, Measure: 10 * units.Second},
		Source: workload.PoissonSource{
			Load: 0.7, Sizes: workload.FixedSize(14),
			TCP: tcp.Config{SegmentSize: units.DefaultSegment, MaxWindow: 43},
		},
	}
}

// eventsProcessed runs one instrumented long-lived (or short-flow) pass
// and reads the kernel's events_processed counter, so events/sec can be
// derived from the uninstrumented timed runs (every iteration processes
// the identical event sequence — that is the determinism contract).
func eventsProcessed(run func(reg *metrics.Registry)) int64 {
	reg := metrics.New()
	run(reg)
	reg.Collect()
	return reg.Counter("sim.events_processed").Value()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		out      = flag.String("out", "BENCH_kernel.json", "output JSON path")
		baseline = flag.String("baseline", "", "previous BENCH_kernel.json whose 'current' block becomes this file's 'baseline'")
		kernel   = flag.String("kernel", kernelDescription, "kernel description recorded in the output")
		gate     = flag.String("gate", "", "BENCH_kernel.json whose 'current' block the fresh numbers must not regress against")
		gatePct  = flag.Float64("gate-pct", 5, "maximum events/sec regression (percent) tolerated by -gate")
		scale    = flag.Bool("scale", false, "run the flows x shards scaling curve (see scale.go) instead of the kernel benchmarks; pair with -out BENCH_scale.json")
	)
	flag.Parse()

	f := File{
		Note:       "generated by `go run ./bench`; ns/op, allocs/op and events/sec for the event kernel and end-to-end simulations (each cell the fastest of three runs)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     gitRev(),
		Current:    Block{Kernel: *kernel, Benchmarks: map[string]Metric{}},
	}

	if *baseline != "" {
		raw, err := os.ReadFile(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		var prev File
		if err := json.Unmarshal(raw, &prev); err != nil {
			log.Fatal(err)
		}
		f.Baseline = &Block{Kernel: prev.Current.Kernel, Benchmarks: prev.Current.Benchmarks}
	}

	if *scale {
		runScale(&f)
	} else {
		runKernelBenchmarks(&f)
	}

	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	for name, m := range f.Current.Benchmarks {
		fmt.Printf("%-18s %12.0f ns/op %8d allocs/op %10.3g events/sec\n",
			name, m.NsPerOp, m.AllocsPerOp, m.EventsPerSec)
	}
	fmt.Printf("wrote %s\n", *out)

	if *gate != "" {
		if err := checkGate(*gate, *gatePct, f.Current.Benchmarks); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gate: within %.3g%% of %s\n", *gatePct, *gate)
	}
}

// runKernelBenchmarks is the default mode: raw scheduler churn plus the
// two end-to-end paper scenarios.
func runKernelBenchmarks(f *File) {
	fmt.Println("kernel_churn...")
	churnEvents := int64(1 << 20)
	r := fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelChurn(int(churnEvents))
		}
	})
	f.Current.Benchmarks["kernel_churn"] = metric(r, churnEvents)

	for _, cell := range []struct {
		name  string
		lanes bool
	}{{"kernel_lanes", true}, {"kernel_lanes_heap", false}} {
		fmt.Println(cell.name + "...")
		r = fastestOf(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernelLanes(int(churnEvents), cell.lanes)
			}
		})
		f.Current.Benchmarks[cell.name] = metric(r, churnEvents)
	}

	fmt.Println("kernel_imminent...")
	r = fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			kernelImminent(int(churnEvents))
		}
	})
	f.Current.Benchmarks["kernel_imminent"] = metric(r, churnEvents)

	fmt.Println("sim_long_lived...")
	llEvents := eventsProcessed(func(reg *metrics.Registry) {
		cfg := longLivedConfig()
		cfg.Metrics = reg
		experiment.RunLongLived(cfg)
	})
	r = fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiment.RunLongLived(longLivedConfig())
		}
	})
	f.Current.Benchmarks["sim_long_lived"] = metric(r, llEvents)

	fmt.Println("sim_short_flows...")
	sfEvents := eventsProcessed(func(reg *metrics.Registry) {
		cfg := shortFlowConfig()
		cfg.Metrics = reg
		experiment.RunProfile(cfg)
	})
	r = fastestOf(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiment.RunProfile(shortFlowConfig())
		}
	})
	f.Current.Benchmarks["sim_short_flows"] = metric(r, sfEvents)
}

// maxAllocRisePct is how far a benchmark's allocs/op may rise over the
// gate file's before -gate fails.
const maxAllocRisePct = 1

// checkGate fails if any benchmark shared with the gate file's
// "current" block lost more than pct percent of its events/sec (or,
// for event-less benchmarks, gained more than pct percent ns/op),
// allocates more than maxAllocRisePct percent more per op, or processes
// a different number of events per op.
func checkGate(path string, pct float64, fresh map[string]Metric) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var ref File
	if err := json.Unmarshal(raw, &ref); err != nil {
		return err
	}
	var failures []string
	for name, old := range ref.Current.Benchmarks {
		now, ok := fresh[name]
		if !ok {
			continue // gate file may carry benchmarks this build does not run
		}
		if limit := old.AllocsPerOp + old.AllocsPerOp*maxAllocRisePct/100; now.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: %d allocs/op -> %d (limit %d, +%d%%)",
				name, old.AllocsPerOp, now.AllocsPerOp, limit, maxAllocRisePct))
		}
		if now.EventsPerOp != old.EventsPerOp {
			failures = append(failures, fmt.Sprintf(
				"%s: %d events/op -> %d (the count is exact on any machine: the simulated schedule changed)",
				name, old.EventsPerOp, now.EventsPerOp))
		}
		switch {
		case old.EventsPerSec > 0 && now.EventsPerSec > 0:
			if drop := 100 * (1 - now.EventsPerSec/old.EventsPerSec); drop > pct {
				failures = append(failures, fmt.Sprintf(
					"%s: %.3g events/sec -> %.3g (-%.1f%%, limit %.3g%%)",
					name, old.EventsPerSec, now.EventsPerSec, drop, pct))
			}
		case old.NsPerOp > 0:
			if rise := 100 * (now.NsPerOp/old.NsPerOp - 1); rise > pct {
				failures = append(failures, fmt.Sprintf(
					"%s: %.0f ns/op -> %.0f (+%.1f%%, limit %.3g%%)",
					name, old.NsPerOp, now.NsPerOp, rise, pct))
			}
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate failed against %s:\n  %s", path, strings.Join(failures, "\n  "))
	}
	return nil
}
