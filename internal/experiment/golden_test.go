package experiment

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bufsim/internal/units"
	"bufsim/internal/workload/profile"
)

// update rewrites the golden tables instead of comparing against them:
//
//	go test ./internal/experiment -run TestGoldenTables -update
//
// Re-record only for a deliberate behaviour change, and say why in the
// commit.
var update = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenCases are scaled-down runs of the table-producing experiments,
// stored field by field under testdata/golden. Where TestGoldenDigests
// pins one opaque hash per result, these pin every value, so a
// regression names the exact field (and table row) that moved.
var goldenCases = []struct {
	name string
	run  func() any
}{
	{
		name: "fig2_single_flow",
		run: func() any {
			return RunSingleFlow(SingleFlowConfig{
				Scenario: Scenario{Path: Path{BottleneckRate: 10 * units.Mbps, Warmup: 30 * units.Second, Measure: 40 * units.Second}}, BufferFactor: 1,
				// Coarse sampling keeps the golden file small; the pinned
				// digest in digest_test.go covers the fine-grained series.
				SampleEvery: 200 * units.Millisecond,
			})
		},
	},
	{
		name: "fig8_short_flow_buffer",
		run: func() any {
			return RunShortFlowBuffer(ShortFlowBufferConfig{
				Scenario: Scenario{Seed: 1, Path: Path{Warmup: 5 * units.Second, Measure: 15 * units.Second}},
				Rates:    []units.BitRate{20 * units.Mbps},
			})
		},
	},
	{
		name: "shortflow_afct",
		run: func() any {
			return shortFlowDigest(RunProfile(shortFlowRun(5, 20*units.Mbps, 0.7, 14, 50,
				4*units.Second, 10*units.Second, RunEnv{})))
		},
	},
	{
		name: "flashcrowd_table",
		run: func() any {
			prof, err := profile.FlashCrowd.Profile().Compress(4)
			if err != nil {
				panic(err)
			}
			return RunFlashCrowd(FlashCrowdConfig{
				Scenario: Scenario{Seed: 21, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second}},
				Stations: 20, Profile: prof, PeakFlows: 8,
				Buffers: []int{25, 100},
				Drain:   20 * units.Second,
			})
		},
	},
	{
		// The catalog's own -quick row: what paperexp -quick -exp codel prints.
		name: "codel_table",
		run: func() any {
			e, err := Lookup("codel")
			if err != nil {
				panic(err)
			}
			return e.Run(true, 1, RunEnv{})
		},
	},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenTables regenerates each scaled-down table and compares it
// field by field against its checked-in JSON.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.MarshalIndent(tc.run(), "", "  ")
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got = append(got, '\n')
			path := goldenPath(tc.name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record with -update)", err)
			}
			var wantV, gotV any
			if err := json.Unmarshal(want, &wantV); err != nil {
				t.Fatalf("golden file: %v", err)
			}
			if err := json.Unmarshal(got, &gotV); err != nil {
				t.Fatalf("regenerated result: %v", err)
			}
			diffJSON(t, tc.name, wantV, gotV)
		})
	}
}

// diffJSON walks two decoded JSON values in parallel and reports every
// leaf that differs by its full path, so a golden failure reads as
// "codel_table[2].Utilization: golden 0.9487, got 0.9981" rather than a
// binary mismatch.
func diffJSON(t *testing.T, path string, want, got any) {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: golden has object, got %T", path, got)
			return
		}
		for k, wv := range w {
			gv, present := g[k]
			if !present {
				t.Errorf("%s.%s: field dropped from result (re-record with -update if deliberate)", path, k)
				continue
			}
			diffJSON(t, path+"."+k, wv, gv)
		}
		for k := range g {
			if _, present := w[k]; !present {
				t.Errorf("%s.%s: new field absent from golden file (re-record with -update)", path, k)
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			t.Errorf("%s: golden has array, got %T", path, got)
			return
		}
		if len(w) != len(g) {
			t.Errorf("%s: golden has %d elements, got %d", path, len(w), len(g))
			return
		}
		for i := range w {
			diffJSON(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i])
		}
	default:
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: golden %v, got %v", path, want, got)
		}
	}
}
