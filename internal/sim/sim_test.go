package sim

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"bufsim/internal/units"
)

// call adapts a func to an Actor, so a test can post a closure as an
// ordinary typed event.
type call func()

func (f call) OnEvent(int32, any) { f() }

func fnAt(s *Scheduler, t units.Time, f func()) Event { return s.PostAt(t, call(f), 0, nil) }

func fnAfter(s *Scheduler, d units.Duration, f func()) Event {
	return s.PostAfter(d, call(f), 0, nil)
}

// reschedule is the retransmission-timer pattern: cancel e if it is
// pending, then post f at t.
func reschedule(s *Scheduler, e Event, t units.Time, f func()) Event {
	s.Cancel(e)
	return fnAt(s, t, f)
}

// TestEventIsNotComparable: handles of recycled slots can look equal, so
// == and map keys on them must not compile.
func TestEventIsNotComparable(t *testing.T) {
	if reflect.TypeOf(Event{}).Comparable() {
		t.Fatal("sim.Event is comparable")
	}
}

// TestSlotIsOneCacheLine pins the pad in slot (see its comment).
func TestSlotIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 64 {
		t.Fatalf("slot is %d bytes, want 64", n)
	}
}

func TestRunOrdersEvents(t *testing.T) {
	s := NewScheduler()
	var order []int
	fnAt(s, 30, func() { order = append(order, 3) })
	fnAt(s, 10, func() { order = append(order, 1) })
	fnAt(s, 20, func() { order = append(order, 2) })
	s.Run(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if s.Now() != 100 {
		t.Errorf("Now = %v, want 100", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		fnAt(s, 5, func() { order = append(order, i) })
	}
	s.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of order: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var fired units.Time
	fnAt(s, 10, func() {
		fnAfter(s, 5, func() { fired = s.Now() })
	})
	s.Run(100)
	if fired != 15 {
		t.Errorf("PostAfter fired at %v, want 15", fired)
	}
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := fnAt(s, 10, func() { fired = true })
	s.Cancel(e)
	s.Run(100)
	if fired {
		t.Error("cancelled event fired")
	}
	if s.Active(e) {
		t.Error("cancelled event reports active")
	}
	// Double-cancel and cancelling the zero handle must be safe.
	s.Cancel(e)
	s.Cancel(Event{})
}

func TestCancelOneOfMany(t *testing.T) {
	s := NewScheduler()
	var order []int
	var events []Event
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, fnAt(s, units.Time(i), func() { order = append(order, i) }))
	}
	// Cancel the even ones.
	for i := 0; i < 20; i += 2 {
		s.Cancel(events[i])
	}
	s.Run(100)
	want := []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestReschedule(t *testing.T) {
	s := NewScheduler()
	var fired []units.Time
	e := fnAt(s, 10, func() { fired = append(fired, s.Now()) })
	e = reschedule(s, e, 20, func() { fired = append(fired, s.Now()) })
	_ = e
	s.Run(100)
	if len(fired) != 1 || fired[0] != 20 {
		t.Errorf("fired = %v, want [20]", fired)
	}
}

func TestRunStopsAtBoundary(t *testing.T) {
	s := NewScheduler()
	fired := false
	fnAt(s, 50, func() { fired = true })
	s.Run(49)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != 49 {
		t.Errorf("Now = %v, want 49", s.Now())
	}
	s.Run(50)
	if !fired {
		t.Error("event at horizon did not fire")
	}
	fnAt(s, 60, func() {})
	s.Run(80) // drains at 60; the clock still goes to until
	if s.Now() != 80 {
		t.Errorf("after a drained Run(80): Now = %v, want 80", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		fnAt(s, units.Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Errorf("executed %d events after Stop, want 3", count)
	}
	// Run can resume.
	s.Run(100)
	if count != 10 {
		t.Errorf("executed %d events total, want 10", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	fnAt(s, 10, func() {})
	s.Run(20)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	fnAt(s, 5, func() {})
}

func TestStep(t *testing.T) {
	s := NewScheduler()
	n := 0
	fnAt(s, 1, func() { n++ })
	fnAt(s, 2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatalf("first Step: n=%d", n)
	}
	if !s.Step() || n != 2 {
		t.Fatalf("second Step: n=%d", n)
	}
	if s.Step() {
		t.Error("Step on empty queue returned true")
	}
}

func TestHeapPropertyRandomOrder(t *testing.T) {
	// Property: regardless of insertion order, events fire sorted by time.
	f := func(times []uint16) bool {
		s := NewScheduler()
		var fired []units.Time
		for _, tt := range times {
			at := units.Time(tt)
			fnAt(s, at, func() { fired = append(fired, s.Now()) })
		}
		s.Run(units.Time(math.MaxUint16) + 1)
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEventAccessorsAndCounters(t *testing.T) {
	s := NewScheduler()
	e := fnAt(s, 25, func() {})
	if at, ok := s.EventTime(e); !ok || at != 25 {
		t.Errorf("EventTime = %v, %v", at, ok)
	}
	if !s.Active(e) {
		t.Error("pending event reports inactive")
	}
	fnAt(s, 30, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Run(100)
	if s.Pending() != 0 {
		t.Errorf("Pending after run = %d", s.Pending())
	}
	if s.Processed != 2 {
		t.Errorf("Processed = %d, want 2", s.Processed)
	}
	if s.Active(e) {
		t.Error("fired event should report inactive")
	}
	if _, ok := s.EventTime(e); ok {
		t.Error("EventTime on a fired event should report not-ok")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative PostAfter did not panic")
		}
	}()
	fnAfter(s, -1, func() {})
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(17)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	g := NewRNG(1)
	f1 := g.Fork()
	f2 := g.Fork()
	// The two forks must differ from each other.
	diff := false
	for i := 0; i < 10; i++ {
		if f1.Float64() != f2.Float64() {
			diff = true
		}
	}
	if !diff {
		t.Error("forked streams identical")
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exp(10)
	}
	mean := sum / n
	if math.Abs(mean-10) > 0.2 {
		t.Errorf("Exp mean = %v, want ~10", mean)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(25, 300)
		if v < 25 || v >= 300 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestBoundedParetoRangeAndTail(t *testing.T) {
	g := NewRNG(11)
	const n = 100000
	count := 0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := g.BoundedPareto(1.2, 4, 10000)
		if v < 4 || v > 10000 {
			t.Fatalf("BoundedPareto out of range: %v", v)
		}
		sum += v
		if v > 1000 {
			count++
		}
	}
	// Heavy tail: a visible fraction of samples exceed 250x the minimum.
	if count == 0 {
		t.Error("BoundedPareto produced no tail samples")
	}
	// Mean of a bounded Pareto(1.2, 4, 10000) is about 19.6.
	mean := sum / n
	if mean < 10 || mean > 35 {
		t.Errorf("BoundedPareto mean = %v, want ~19.6", mean)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	g := NewRNG(3)
	if v := g.BoundedPareto(1.5, 10, 10); v != 10 {
		t.Errorf("degenerate BoundedPareto = %v, want 10", v)
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(5)
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		v := g.Geometric(14)
		if v < 1 {
			t.Fatalf("Geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if math.Abs(mean-14) > 0.5 {
		t.Errorf("Geometric mean = %v, want ~14", mean)
	}
	if v := g.Geometric(0.5); v != 1 {
		t.Errorf("Geometric(0.5) = %d, want 1", v)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Normal(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("Normal mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Normal variance = %v, want ~4", variance)
	}
}

// testActor records typed dispatches for the pooled-event tests.
type testActor struct {
	ops  []int32
	args []any
}

func (a *testActor) OnEvent(op int32, arg any) {
	a.ops = append(a.ops, op)
	a.args = append(a.args, arg)
}

func TestTypedDispatch(t *testing.T) {
	s := NewScheduler()
	a := &testActor{}
	payload := &testActor{} // any pointer will do as a payload
	s.PostAt(5, a, 7, payload)
	s.PostAfter(10, a, 8, nil)
	s.Run(100)
	if len(a.ops) != 2 || a.ops[0] != 7 || a.ops[1] != 8 {
		t.Fatalf("ops = %v, want [7 8]", a.ops)
	}
	if a.args[0] != payload || a.args[1] != nil {
		t.Errorf("args = %v", a.args)
	}
}

func TestCancelAfterFireIsStale(t *testing.T) {
	// A handle whose event already fired must be inert: its slot may have
	// been recycled for a different event, and Cancel must not kill that
	// newer event.
	s := NewScheduler()
	e1 := fnAt(s, 10, func() {})
	s.Run(20)
	if s.Active(e1) {
		t.Fatal("fired event still active")
	}
	// The freed slot is reused by the next schedule.
	fired := false
	e2 := fnAt(s, 30, func() { fired = true })
	// Cancelling the stale handle must be a no-op even though e1 and e2
	// likely share a slot (the generation differs).
	s.Cancel(e1)
	if !s.Active(e2) {
		t.Fatal("cancelling a stale handle killed the recycled slot's event")
	}
	s.Run(40)
	if !fired {
		t.Error("recycled-slot event did not fire")
	}
}

func TestRescheduleRecycledSlot(t *testing.T) {
	// Reschedule with a stale handle must behave like a fresh schedule and
	// must not disturb the event now occupying the recycled slot.
	s := NewScheduler()
	e1 := fnAt(s, 10, func() {})
	s.Run(20)
	survivor := false
	e2 := fnAt(s, 50, func() { survivor = true })
	moved := false
	e3 := reschedule(s, e1, 40, func() { moved = true })
	if !s.Active(e2) || !s.Active(e3) {
		t.Fatal("reschedule of stale handle disturbed live events")
	}
	s.Run(100)
	if !survivor || !moved {
		t.Errorf("survivor=%v moved=%v, want both true", survivor, moved)
	}
}

func TestRescheduleActiveEventMoves(t *testing.T) {
	s := NewScheduler()
	var at units.Time
	e := fnAt(s, 10, func() { at = s.Now() })
	e2 := reschedule(s, e, 30, func() { at = s.Now() })
	if s.Active(e) {
		t.Error("original handle still active after reschedule")
	}
	if !s.Active(e2) {
		t.Error("rescheduled handle not active")
	}
	s.Run(100)
	if at != 30 {
		t.Errorf("rescheduled event fired at %v, want 30", at)
	}
}

func TestSameInstantFIFOMixedKinds(t *testing.T) {
	// Events of two actors scheduled at the same instant must fire in
	// scheduling order regardless of slot reuse underneath.
	s := NewScheduler()
	var order []int
	a := &testActor{}
	// Churn some slots first so the free list is non-trivial.
	for i := 0; i < 5; i++ {
		fnAt(s, 1, func() {})
	}
	s.Run(2)
	fnAt(s, 10, func() { order = append(order, 0) })
	s.PostAt(10, a, 0, nil)
	fnAt(s, 10, func() { order = append(order, 2) })
	s.PostAt(10, a, 1, nil)
	fnAt(s, 10, func() { order = append(order, 4) })
	s.Run(20)
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 4 {
		t.Errorf("call order = %v, want [0 2 4]", order)
	}
	if len(a.ops) != 2 || a.ops[0] != 0 || a.ops[1] != 1 {
		t.Errorf("typed order = %v, want [0 1]", a.ops)
	}
}

func TestSlotReuseAcrossManyCycles(t *testing.T) {
	// Exercise alloc/release heavily: a single self-rescheduling typed
	// event plus cancelled decoys should never confuse generations.
	s := NewScheduler()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 1000 {
			decoy := fnAfter(s, 5, func() { t.Error("decoy fired") })
			fnAfter(s, 1, tick)
			s.Cancel(decoy)
		}
	}
	fnAfter(s, 1, tick)
	s.Run(units.Never - 1)
	if n != 1000 {
		t.Errorf("ticks = %d, want 1000", n)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after drain", s.Pending())
	}
}

func TestMaxPendingTracksHighWater(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		fnAt(s, units.Time(10+i), func() {})
	}
	s.Run(100)
	if s.MaxPending() != 7 {
		t.Errorf("MaxPending = %d, want 7", s.MaxPending())
	}
}

func BenchmarkSchedulerChurnTyped(b *testing.B) {
	// Raw kernel throughput: schedule + fire, with a rolling window of
	// pending events, the pattern network simulations produce.
	s := NewScheduler()
	c := &churnActor{s: s, limit: b.N}
	for j := 0; j < 100 && j < b.N; j++ {
		s.PostAfter(units.Duration(j), c, 0, nil)
	}
	b.ResetTimer()
	s.Run(units.Never - 1)
}

type churnActor struct {
	s     *Scheduler
	i     int
	limit int
}

func (c *churnActor) OnEvent(int32, any) {
	c.i++
	if c.i < c.limit {
		c.s.PostAfter(10, c, 0, nil)
	}
}
