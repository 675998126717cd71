package sim

import (
	"testing"

	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

// TestDispatchAhead: a handler dispatched ahead runs at once with the
// clock at the later instant, its posts are keyed from that instant in
// the order they are made, and the clock comes back afterwards; the
// dispatch is counted in sim.dispatch_ahead and not in Processed.
func TestDispatchAhead(t *testing.T) {
	s := NewScheduler()
	reg := metrics.New()
	s.Instrument(reg)
	var order []string
	note := func(name string) func() {
		return func() { order = append(order, name) }
	}
	fnAt(s, 15, note("A@15"))
	fnAt(s, 25, note("B@25"))
	lane := s.NewLane(call(note("lane@25")), 0)
	fnAt(s, 10, func() {
		var sawNow units.Time
		var sawAhead bool
		s.DispatchAhead(20, call(func() {
			sawNow, sawAhead = s.Now(), s.Ahead()
			fnAt(s, s.Now(), note("C@20"))
			lane.PostAfter(5, nil)
		}), 0, nil)
		if sawNow != 20 || !sawAhead {
			t.Errorf("ahead handler saw Now %v, Ahead %v; want 20, true", sawNow, sawAhead)
		}
		if s.Now() != 10 || s.Ahead() {
			t.Errorf("after the dispatch: Now %v, Ahead %v; want 10, false", s.Now(), s.Ahead())
		}
	})
	s.Run(100)
	want := []string{"A@15", "C@20", "B@25", "lane@25"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	reg.Collect()
	if s.Processed != 5 || reg.Counter("sim.dispatch_ahead").Value() != 1 {
		t.Errorf("Processed %d, sim.dispatch_ahead %d; want 5 and 1", s.Processed, reg.Counter("sim.dispatch_ahead").Value())
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchAheadRefusesThePastAndItself: dispatching ahead to a time
// before now, or from inside a handler dispatched ahead, panics.
func TestDispatchAheadRefusesThePastAndItself(t *testing.T) {
	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	s := NewScheduler()
	s.Run(10)
	panics("a dispatch to the past", func() { s.DispatchAhead(9, call(func() {}), 0, nil) })
	panics("a nested dispatch", func() {
		s.DispatchAhead(12, call(func() { s.DispatchAhead(14, call(func() {}), 0, nil) }), 0, nil)
	})
	s = NewScheduler()
	s.DispatchAhead(s.Now(), call(func() {}), 0, nil) // now itself is not the past
}
