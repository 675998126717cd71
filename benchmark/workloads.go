package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workload is one benchmark workload: the CLI invocations that make up one
// rep, and how many reps a run does. A rep is always a complete process
// run (fork to exit) at a fixed -seed; the harness never has two children
// alive at once.
type workload struct {
	name string
	// procs is the children's GOMAXPROCS; 2 is capped at the machine's CPUs.
	procs int
	// cmds run in order inside one rep; cmds[i][0] names the CLI, and a
	// paperexp command ends with its experiment id (verify looks it up).
	cmds [][]string
	// warmups is W, the untimed reps before timing starts.
	warmups int
	// repS is what one rep takes on the reference box (README, calibration
	// table). A run does R = max(minReps, seconds/repS) timed reps: R
	// follows -seconds but never the clock, so two commits do the same work.
	repS    float64
	minReps int
	// sweep marks the paperexp workload: every rep gets a fresh -cachedir,
	// and a warm replay against the last one is checked after timing.
	sweep bool
	// sameAs names the workload whose stdout this one's must equal.
	sameAs string
	// point is this workload's operating point for benchmark/layers.
	point []string
}

var longlived1000 = []string{"bufsim", "-rate", "2Gbps", "-flows", "1000", "-buffer", "1025", "-warmup", "1s", "-measure", "1s"}

// workloads is the benchmark. Names and reasons are repeated in
// BENCHMARK.json and benchmark/README.md; TestSpecMatchesHarness keeps the
// three in step.
var workloads = []workload{
	{
		name: "longlived_30", procs: 1, warmups: 5, repS: 0.4, minReps: 5,
		cmds:  [][]string{{"bufsim", "-rate", "60Mbps", "-flows", "30", "-buffer", "55", "-warmup", "1s", "-measure", "60s"}},
		point: []string{"-flows", "30", "-rate-mbps", "60", "-buffer", "55", "-heap", "900"},
	},
	{
		name: "longlived_1000", procs: 1, warmups: 5, repS: 0.95, minReps: 5,
		cmds:  [][]string{longlived1000},
		point: []string{"-flows", "1000", "-rate-mbps", "2000", "-buffer", "1025", "-heap", "32000"},
	},
	{
		name: "longlived_1000_shards2", procs: 2, warmups: 3, repS: 1.7, minReps: 5,
		cmds:   [][]string{append(append([]string(nil), longlived1000...), "-shards", "2")},
		sameAs: "longlived_1000",
		point:  []string{"-flows", "1000", "-rate-mbps", "2000", "-buffer", "1025", "-heap", "32000"},
	},
	{
		name: "churn_red_sack", procs: 1, warmups: 5, repS: 0.7, minReps: 5,
		cmds: [][]string{{"bufsim", "-rate", "100Mbps", "-flows", "50", "-workload", "constant", "-red", "-variant", "sack",
			"-warmup", "1s", "-measure", "6s"}},
		point: []string{"-flows", "50", "-rate-mbps", "100", "-buffer", "177", "-heap", "2000", "-red", "-sack"},
	},
	{
		name: "sweep_cold", procs: 2, warmups: 5, repS: 0.6, minReps: 3, sweep: true,
		cmds: [][]string{
			{"paperexp", "-quick", "-parallel", "2", "-cache", "-exp", "fig10"},
			{"paperexp", "-quick", "-parallel", "2", "-cache", "-exp", "red"},
		},
		point: []string{"-flows", "100", "-rate-mbps", "20", "-buffer", "20", "-heap", "500"},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// reps is R for a run of the given length.
func (w *workload) reps(seconds float64) int {
	if r := int(seconds / w.repS); r > w.minReps {
		return r
	}
	return w.minReps
}

// metricSpec and benchSpec are the parts of BENCHMARK.json the harness
// reads: the default run length, the metric names and units it reports
// under, and the bounds the A/A check judges against.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %v", err)
	}
	return s, nil
}
