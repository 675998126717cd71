package workload

import (
	"strings"
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

func TestSessionSourceDrives(t *testing.T) {
	s, d, rng := testDumbbell(6, 40, 10*units.Mbps)
	drv := SessionSource{
		Sessions: 4, Sizes: FixedSize(10), MeanThink: 200 * units.Millisecond,
		MaxWindow: 16,
	}.Bind(d, rng.Fork(), tcp.Config{})
	drv.Start()
	s.Run(units.Time(10 * units.Second))
	if drv.Generated() == 0 {
		t.Fatal("sessions generated no transfers")
	}
	if int64(len(drv.Records())) != drv.Generated() {
		t.Errorf("Records/Generated mismatch: %d vs %d", len(drv.Records()), drv.Generated())
	}
	drv.Stop()
	gen := drv.Generated()
	s.Run(units.Time(30 * units.Second))
	if drv.Generated() != gen {
		t.Errorf("Stop did not halt launches: %d -> %d", gen, drv.Generated())
	}
}

func TestTraceSourceAnchorsAtStart(t *testing.T) {
	s, d, rng := testDumbbell(5, 100, 10*units.Mbps)
	specs, err := ReadFlows(strings.NewReader("0.0,10\n0.5,20\n1.0,5\n"))
	if err != nil {
		t.Fatal(err)
	}
	drv := TraceSource{Flows: specs, MaxWindow: 43}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})

	// Nothing runs before Start; the trace anchors when started, not at
	// the epoch.
	s.Run(units.Time(2 * units.Second))
	if drv.Generated() != 0 || drv.Active() != 0 || drv.Records() != nil {
		t.Fatal("trace driver ran before Start")
	}
	drv.Start()
	s.Run(units.Time(30 * units.Second))
	if drv.Generated() != 3 {
		t.Fatalf("generated = %d, want 3", drv.Generated())
	}
	recs := drv.Records()
	if recs[1].Start != units.Time(2*units.Second).Add(specs[1].Start) {
		t.Errorf("flow 1 start = %v, want trace offset %v past the driver start", recs[1].Start, specs[1].Start)
	}
	for i, r := range recs {
		if r.Completed == units.Never {
			t.Errorf("flow %d never completed", i)
		}
	}
	if drv.Active() != 0 {
		t.Errorf("Active = %d after all flows completed", drv.Active())
	}
}

func TestTraceSourceStopAbandonsPending(t *testing.T) {
	s, d, rng := testDumbbell(5, 100, 10*units.Mbps)
	specs := []FlowSpec{
		{Start: 0, Size: 5},
		{Start: 10 * units.Second, Size: 5},
	}
	drv := TraceSource{Flows: specs, MaxWindow: 16}.Bind(d, rng.Fork(), tcp.Config{})
	drv.Start()
	s.Run(units.Time(5 * units.Second))
	drv.Stop()
	s.Run(units.Time(30 * units.Second))
	if drv.Generated() != 1 {
		t.Errorf("generated = %d after Stop, want 1 (second flow abandoned)", drv.Generated())
	}
}

func TestRecordAFCT(t *testing.T) {
	at := func(d units.Duration) units.Time { return units.Epoch.Add(d) }
	records := []*FlowRecord{
		{Start: at(1 * units.Second), Completed: at(2 * units.Second)},         // in window: 1s
		{Start: at(2 * units.Second), Completed: at(5 * units.Second)},         // in window: 3s
		{Start: at(3 * units.Second), Completed: units.Never},                  // censored
		{Start: at(20 * units.Second), Completed: at(21 * units.Second)},       // outside window
		{Start: at(0), Completed: at(10 * units.Second)},                       // before window
		{Start: at(4 * units.Second), Completed: at(4500 * units.Millisecond)}, // in window: 0.5s
	}
	afct, completed, censored := RecordAFCT(records, at(units.Second), at(10*units.Second))
	if completed != 3 || censored != 1 {
		t.Fatalf("completed=%d censored=%d, want 3, 1", completed, censored)
	}
	if want := units.Duration(1500 * units.Millisecond); afct != want {
		t.Errorf("afct = %v, want %v", afct, want)
	}
	afct, completed, censored = RecordAFCT(nil, at(0), at(units.Second))
	if afct != 0 || completed != 0 || censored != 0 {
		t.Error("empty records should be all zeros")
	}
}

func TestSourceStrings(t *testing.T) {
	cases := []struct {
		src  Source
		want string
	}{
		{PoissonSource{Load: 0.85, Sizes: GeometricSize(14)}, "poisson(load=0.85"},
		{SessionSource{Sessions: 40, Sizes: FixedSize(10), MeanThink: units.Second}, "sessions(40"},
		{TraceSource{Flows: make([]FlowSpec, 7)}, "trace(7 flows)"},
	}
	for _, c := range cases {
		if got := c.src.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
}
