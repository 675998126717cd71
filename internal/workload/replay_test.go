package workload

import (
	"strings"
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

func TestParseTrace(t *testing.T) {
	in := `# flows exported from somewhere
start_seconds,size_segments
0.1,4
0.5,10

2.25,100
`
	specs, err := ReadFlows(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("specs = %+v", specs)
	}
	if specs[0].Size != 4 || specs[1].Size != 10 || specs[2].Size != 100 {
		t.Errorf("order wrong: %+v", specs)
	}
	if specs[0].Start != 100*units.Millisecond {
		t.Errorf("start = %v", specs[0].Start)
	}
	if specs[2].Start != 2250*units.Millisecond {
		t.Errorf("start = %v", specs[2].Start)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := map[string]string{
		"wrong fields":  "1,2,3\n",
		"bad size":      "1.0,ten\n",
		"negative":      "-1,5\n",
		"zero size":     "1,0\n",
		"bad start row": "0.1,5\n(oops),5\n",
	}
	for name, in := range cases {
		if _, err := ReadFlows(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	// Empty trace is fine.
	specs, err := ReadFlows(strings.NewReader("# nothing\n"))
	if err != nil || len(specs) != 0 {
		t.Errorf("empty trace: %v %v", specs, err)
	}
}

// replay binds and starts specs as a TraceSource and returns its records.
func replay(d *topology.Dumbbell, specs []FlowSpec) []*FlowRecord {
	drv := TraceSource{Flows: specs, TCP: tcp.Config{SegmentSize: 1000, MaxWindow: 43}}.Bind(d, nil)
	drv.Start()
	return drv.Records()
}

func TestReplayRunsTrace(t *testing.T) {
	s, d, _ := testDumbbell(5, 200, 10*units.Mbps)
	specs := []FlowSpec{
		{Start: 0, Size: 10},
		{Start: 500 * units.Millisecond, Size: 20},
		{Start: units.Second, Size: 5},
	}
	records := replay(d, specs)
	s.Run(units.Time(20 * units.Second))
	if len(records) != 3 {
		t.Fatalf("records = %d", len(records))
	}
	for i, r := range records {
		if r.Completed == units.Never {
			t.Errorf("flow %d never completed", i)
			continue
		}
		if r.Start < units.Epoch.Add(specs[i].Start) {
			t.Errorf("flow %d started at %v before its trace time %v", i, r.Start, specs[i].Start)
		}
		if r.Completed <= r.Start {
			t.Errorf("flow %d completed before starting", i)
		}
	}
	// Start times respect the trace (within scheduling exactness).
	if records[1].Start != units.Epoch.Add(specs[1].Start) {
		t.Errorf("flow 1 start = %v, want %v", records[1].Start, specs[1].Start)
	}
}

func TestReplayEndToEndFromCSV(t *testing.T) {
	s, d, _ := testDumbbell(10, 100, 10*units.Mbps)
	csv := "0.0,14\n0.2,14\n0.4,30\n0.6,8\n0.8,14\n"
	specs, err := ReadFlows(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	records := replay(d, specs)
	s.Run(units.Time(30 * units.Second))
	var done int
	for _, r := range records {
		if r.Completed != units.Never {
			done++
		}
	}
	if done != len(records) {
		t.Errorf("%d/%d trace flows completed", done, len(records))
	}
}
