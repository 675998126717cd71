package workload

import (
	"bytes"
	"strings"
	"testing"

	"bufsim/internal/units"
)

func TestReadFlowsSniffsCSV(t *testing.T) {
	in := "# legacy export\n0.1,4\n0.5,10\n2.25,100\n"
	specs, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 || specs[0].Size != 4 || specs[2].Start != 2250*units.Millisecond {
		t.Errorf("specs = %+v", specs)
	}
}

func TestReadFlowsSniffsJSON(t *testing.T) {
	in := ` [
		{"start": "100ms", "size": 4},
		{"start": 0.5, "size": 10},
		{"start": "2.25s", "size": 100}
	]`
	specs, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %+v", specs)
	}
	// Duration strings and bare seconds land on the same axis.
	if specs[0].Start != 100*units.Millisecond || specs[1].Start != 500*units.Millisecond {
		t.Errorf("starts = %v, %v", specs[0].Start, specs[1].Start)
	}
	if specs[2].Size != 100 {
		t.Errorf("size = %d", specs[2].Size)
	}
}

// TestReadFlowsRejectsOutOfOrder pins the bugfix: the CSV reader once
// silently resorted shuffled rows, hiding corrupted or mis-merged
// traces. ReadFlows treats order as part of the format in both
// encodings.
func TestReadFlowsRejectsOutOfOrder(t *testing.T) {
	cases := map[string]string{
		"csv":  "0.5,10\n0.1,4\n",
		"json": `[{"start": 0.5, "size": 10}, {"start": 0.1, "size": 4}]`,
	}
	for name, in := range cases {
		_, err := ReadFlows(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: out-of-order trace accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "ordered by start time") {
			t.Errorf("%s: error %q does not explain the ordering contract", name, err)
		}
	}
}

func TestReadFlowsJSONErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":  `[{"start": 0, "size": 4, "bytes": 100}]`,
		"missing start":  `[{"size": 4}]`,
		"bad start":      `[{"start": true, "size": 4}]`,
		"negative start": `[{"start": -1, "size": 4}]`,
		"zero size":      `[{"start": 0, "size": 0}]`,
		"negative size":  `[{"start": 0, "size": -4}]`,
		"not an array":   `{"start": 0, "size": 4}`,
	}
	for name, in := range cases {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// An empty JSON trace is fine, like an empty CSV one.
	specs, err := ReadFlows(strings.NewReader("[]"))
	if err != nil || len(specs) != 0 {
		t.Errorf("empty JSON trace: %v %v", specs, err)
	}
}

func TestReadFlowsCSVRejectsNonFinite(t *testing.T) {
	for _, in := range []string{"NaN,4\n", "+Inf,4\n"} {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%q: non-finite start accepted", strings.TrimSpace(in))
		}
	}
}

// FuzzReadFlows feeds the trace parser arbitrary bytes: it must never
// panic, and whatever it accepts is a timeline — it passes ValidateFlows
// and binds and starts as a TraceSource.
func FuzzReadFlows(f *testing.F) {
	for _, seed := range []string{
		"# legacy export\n0.1,4\n0.5,10\n2.25,100\n",
		`[{"start": "100ms", "size": 4}, {"start": 0.5, "size": 10}, {"start": "2.25s", "size": 100}]`,
		"start_seconds,size_segments\n",
		"NaN,4\n",
		"0.5,10\n0.1,4\n",
		`[{"start": 0.5, "size": 10}, {"start": 0.1, "size": 4}]`,
		`[{"start": "NaNs", "size": 1}]`,
		"1e300,1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ReadFlows(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := ValidateFlows(specs); err != nil {
			t.Fatalf("ReadFlows accepted what ValidateFlows rejects: %v", err)
		}
		_, d, _ := testDumbbell(1, 10, units.Mbps)
		TraceSource{Flows: specs}.Bind(d, nil).Start()
	})
}
