package workload

import (
	"strings"
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

func TestSessionSourceDrives(t *testing.T) {
	s, d, rng := testDumbbell(6, 40, 10*units.Mbps)
	drv := SessionSource{
		Sessions: 4, Sizes: FixedSize(10), MeanThink: 200 * units.Millisecond,
		MaxWindow: 16,
	}.Bind(d, rng.Fork(), tcp.Config{})
	drv.Start(units.Epoch, units.Never)
	s.Run(units.Time(10 * units.Second))
	if drv.Generated() == 0 {
		t.Fatal("sessions generated no transfers")
	}
	if _, completed, open := drv.Window(); int64(completed+open) != drv.Generated() {
		t.Errorf("Window counts %d completed + %d open, Generated %d", completed, open, drv.Generated())
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
	var starts []units.Time
	d.OnAddFlow = func(*topology.Flow) { starts = append(starts, s.Now()) }

	// Nothing runs before Start; the trace anchors when started, not at
	// the epoch.
	s.Run(units.Time(2 * units.Second))
	if _, completed, open := drv.Window(); drv.Generated() != 0 || drv.Active() != 0 || completed+open != 0 {
		t.Fatal("trace driver ran before Start")
	}
	drv.Start(units.Epoch, units.Never)
	s.Run(units.Time(30 * units.Second))
	if drv.Generated() != 3 || len(starts) != 3 {
		t.Fatalf("generated = %d, %d flows wired; want 3", drv.Generated(), len(starts))
	}
	if starts[1] != units.Time(2*units.Second).Add(specs[1].Start) {
		t.Errorf("flow 1 start = %v, want trace offset %v past the driver start", starts[1], specs[1].Start)
	}
	if _, completed, open := drv.Window(); completed != 3 || open != 0 {
		t.Errorf("%d of 3 flows completed, %d open", completed, open)
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
	drv.Start(units.Epoch, units.Never)
	s.Run(units.Time(5 * units.Second))
	drv.Stop()
	s.Run(units.Time(30 * units.Second))
	if drv.Generated() != 1 {
		t.Errorf("generated = %d after Stop, want 1 (second flow abandoned)", drv.Generated())
	}
}

// TestRecordAFCT: of flows launched before, inside and after the window
// [1s, 10s], Window averages the observed completion times of the three
// completed in-window flows, counts the one still in flight as open, and
// reads zeros for a trace with no flows.
func TestRecordAFCT(t *testing.T) {
	at := func(d units.Duration) units.Time { return units.Epoch.Add(d) }
	specs := []FlowSpec{
		{Start: 0, Size: 10},                       // before window
		{Start: 1 * units.Second, Size: 10},        // in window
		{Start: 2 * units.Second, Size: 30},        // in window
		{Start: 3 * units.Second, Size: 1_000_000}, // censored
		{Start: 4 * units.Second, Size: 5},         // in window
		{Start: 20 * units.Second, Size: 10},       // outside window
	}
	flows, drv := runTraceWindow(t, specs, at(units.Second), at(10*units.Second), at(25*units.Second))
	for _, i := range []int{0, 1, 2, 4, 5} {
		if flows[i].done == units.Never {
			t.Fatalf("flow %d never completed", i)
		}
	}
	afct, completed, open := drv.Window()
	if completed != 3 || open != 1 {
		t.Fatalf("completed=%d open=%d, want 3, 1", completed, open)
	}
	var sum units.Duration
	for _, i := range []int{1, 2, 4} {
		sum += flows[i].done.Sub(flows[i].start)
	}
	if want := sum / 3; afct != want {
		t.Errorf("afct = %v, want %v", afct, want)
	}
	_, drv = runTraceWindow(t, nil, at(0), at(units.Second), at(units.Second))
	if afct, completed, open := drv.Window(); afct != 0 || completed != 0 || open != 0 {
		t.Error("an empty trace should count all zeros")
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
