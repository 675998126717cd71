package trace

import (
	"strings"
	"testing"

	"bufsim/internal/sim"
	"bufsim/internal/units"
)

func TestSeriesBasics(t *testing.T) {
	s := &Series{Name: "q"}
	s.Add(0, 5)
	s.Add(units.Time(units.Second), 1)
	s.Add(units.Time(2*units.Second), 9)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Min() != 1 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	w := s.Window(0.5, 1.5)
	if w.Len() != 1 || w.Values[0] != 1 {
		t.Errorf("Window = %+v", w)
	}
	var empty Series
	if empty.Min() != 0 || empty.Max() != 0 {
		t.Error("empty series min/max not 0")
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "cwnd"}
	b := &Series{Name: "queue"}
	a.Add(0, 2)
	a.Add(units.Time(units.Second), 4)
	b.Add(0, 0)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "time_s,cwnd,queue" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "0.000000,2,0") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], ",4,") {
		t.Errorf("row 2 = %q", lines[2])
	}
	// No series: no output, no error.
	var sb2 strings.Builder
	if err := WriteCSV(&sb2); err != nil || sb2.Len() != 0 {
		t.Error("empty WriteCSV misbehaved")
	}
}

func TestASCIIPlot(t *testing.T) {
	s := &Series{Name: "saw"}
	for i := 0; i < 100; i++ {
		s.Add(units.Time(i)*units.Time(units.Second), float64(i%10))
	}
	out := ASCIIPlot(s, 40, 8)
	if !strings.Contains(out, "saw") || !strings.Contains(out, "*") {
		t.Errorf("plot missing content:\n%s", out)
	}
	if got := ASCIIPlot(&Series{}, 40, 8); !strings.Contains(got, "empty") {
		t.Error("empty plot not flagged")
	}
	// Constant series must not divide by zero.
	c := &Series{Name: "const"}
	c.Add(0, 5)
	c.Add(units.Time(units.Second), 5)
	_ = ASCIIPlot(c, 10, 4)
}

func TestDownsample(t *testing.T) {
	s := &Series{Name: "saw"}
	for i := 0; i < 10000; i++ {
		s.Add(units.Time(i)*units.Time(units.Millisecond), float64(i%100))
	}
	d := s.Downsample(500)
	if d.Len() > 500 {
		t.Fatalf("Len = %d, want <= 500", d.Len())
	}
	if d.Len() < 400 {
		t.Fatalf("Len = %d, too aggressive", d.Len())
	}
	// Envelope preserved: the sawtooth's extremes survive.
	if d.Max() < 95 || d.Min() > 5 {
		t.Errorf("envelope lost: [%v, %v]", d.Min(), d.Max())
	}
	// Times remain sorted.
	for i := 1; i < d.Len(); i++ {
		if d.Times[i] < d.Times[i-1] {
			t.Fatal("downsampled times not sorted")
		}
	}
	// Short series pass through untouched.
	if got := s.Downsample(20000); got != s {
		t.Error("within-budget series was copied")
	}
	if got := s.Downsample(1); got != s {
		t.Error("degenerate maxPoints should return the original")
	}
}

// call adapts a func to a sim.Actor.
type call func()

func (f call) OnEvent(int32, any) { f() }

func TestSamplerPolls(t *testing.T) {
	sched := sim.NewScheduler()
	v := 0.0
	sched.PostAfter(units.Second/2, call(func() { v = 10 }), 0, nil)
	s := NewSampler(sched, "probe", 100*units.Millisecond, func() float64 { return v })
	sched.Run(units.Time(units.Second))
	series := s.Series()
	if series.Len() != 10 {
		t.Fatalf("Len = %d, want 10", series.Len())
	}
	if series.Values[0] != 0 || series.Values[9] != 10 {
		t.Errorf("values = %v", series.Values)
	}
	if series.Times[0] != 0.1 {
		t.Errorf("first sample at %v, want 0.1s", series.Times[0])
	}
}

func TestSamplerStop(t *testing.T) {
	sched := sim.NewScheduler()
	s := NewSampler(sched, "p", 100*units.Millisecond, func() float64 { return 1 })
	sched.PostAfter(units.Second/2, call(s.Stop), 0, nil)
	sched.Run(units.Time(units.Second))
	if s.Series().Len() > 5 {
		t.Errorf("sampler did not stop: %d points", s.Series().Len())
	}
}

func TestSamplerBadPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewSampler(sim.NewScheduler(), "p", 0, func() float64 { return 0 })
}
