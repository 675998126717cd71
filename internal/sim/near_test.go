package sim

import (
	"container/heap"
	"fmt"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/units"
)

// oracle is the reference the kernel is replayed against: every pending
// event in one container/heap ordered by (at, seq), lanes included. It
// knows nothing of slots, the near run or deferred pops.
type oracle struct {
	h    []*oev
	seq  uint64
	max  int
	lane [oracleLanes]struct { // per lane: items pending and the tail's time
		n    int
		tail units.Time
	}
}

type oev struct {
	at   units.Time
	seq  uint64
	id   int
	lane int // the lane it queues on, or -1
	idx  int // heap index, -1 once fired or cancelled
}

const oracleLanes = 3

func (o *oracle) Len() int { return len(o.h) }
func (o *oracle) Less(i, j int) bool {
	return o.h[i].at < o.h[j].at || o.h[i].at == o.h[j].at && o.h[i].seq < o.h[j].seq
}
func (o *oracle) Swap(i, j int) { o.h[i], o.h[j] = o.h[j], o.h[i]; o.h[i].idx, o.h[j].idx = i, j }
func (o *oracle) Push(x any)    { e := x.(*oev); e.idx = len(o.h); o.h = append(o.h, e) }
func (o *oracle) Pop() any {
	e := o.h[len(o.h)-1]
	o.h, e.idx = o.h[:len(o.h)-1], -1
	return e
}

// outside is what MaxPending counts: events not queued behind a lane head.
func (o *oracle) outside() int {
	n := len(o.h)
	for _, l := range o.lane {
		if l.n > 1 {
			n -= l.n - 1
		}
	}
	return n
}

// post mirrors PostAt (lane < 0) or Lane.PostAfter, including the lane's
// fallback to an ordinary event when t is earlier than its tail.
func (o *oracle) post(t units.Time, id, lane int) *oev {
	if lane >= 0 {
		if l := &o.lane[lane]; l.n > 0 && t < l.tail {
			lane = -1
		} else {
			l.n, l.tail = l.n+1, t
		}
	}
	e := &oev{at: t, seq: o.seq, id: id, lane: lane}
	o.seq++
	heap.Push(o, e)
	if n := o.outside(); n > o.max {
		o.max = n
	}
	return e
}

func (o *oracle) remove(e *oev) {
	if e.idx >= 0 {
		heap.Remove(o, e.idx)
	}
}

func (o *oracle) pop() *oev {
	e := heap.Pop(o).(*oev)
	if e.lane >= 0 {
		o.lane[e.lane].n--
	}
	return e
}

// oracleRun drives a Scheduler and an oracle through one random program.
type oracleRun struct {
	t       *testing.T
	s       *Scheduler
	o       oracle
	rng     *RNG
	lanes   [oracleLanes]*Lane
	handles []Event
	events  []*oev // events[i] is what handles[i] refers to
	nextID  int
	fired   int
	stops   int
	pops    int // handlers that returned with the root's pop still deferred
	// what the program reached, so the test can insist it reached it all
	nearCancels, frontPosts, secondPosts, behindPosts int
}

// delays mixes the imminent with the far so that posts land before the
// root, between the root and its children, and deep in the heap.
var oracleDelays = []units.Duration{0, 0, 1, 1, 2, 3, 5, 8, 40, 200, 1000}

func (r *oracleRun) OnEvent(op int32, arg any) { r.dispatched(arg.(int)) }

// dispatched is every handler: it checks the event is the one the oracle
// fires next, then behaves as its id dictates.
func (r *oracleRun) dispatched(id int) {
	want := r.o.pop()
	if want.id != id || want.at != r.s.Now() {
		r.t.Fatalf("dispatch %d: kernel fired #%d at %v, oracle #%d at %v", r.fired, id, r.s.Now(), want.id, want.at)
	}
	r.fired++
	r.check("inside handler")
	switch r.rng.Intn(8) {
	case 0, 1, 2:
		r.op()
	case 3:
		r.op()
		r.op()
		r.op()
	case 4:
		r.stops++
		r.s.Stop()
	}
	r.pops += r.s.hole
}

// op performs one random operation on both sides.
func (r *oracleRun) op() {
	s := r.s
	d := oracleDelays[r.rng.Intn(len(oracleDelays))]
	t := s.Now().Add(d)
	r.nextID++
	id := r.nextID
	switch k := r.rng.Intn(12); {
	case k < 5: // typed post
		r.classify(t)
		r.handles = append(r.handles, s.PostAt(t, r, 0, id))
		r.events = append(r.events, r.o.post(t, id, -1))
	case k < 7: // closure
		r.classify(t)
		r.handles = append(r.handles, s.After(d, func() { r.dispatched(id) }))
		r.events = append(r.events, r.o.post(t, id, -1))
	case k < 10: // lane post
		l := r.rng.Intn(oracleLanes)
		r.lanes[l].PostAfter(d, id)
		r.o.post(t, id, l)
	default: // cancel any handle: pending (heap or near run), fired, recycled
		if len(r.handles) == 0 {
			return
		}
		i := r.rng.Intn(len(r.handles))
		// Half the time go for a handle that is in the near run right now.
		if r.rng.Intn(2) == 0 {
			for j, h := range r.handles {
				if sl := &s.slots[h.id-1]; sl.gen == h.gen && sl.pos == posNear {
					i = j
				}
			}
		}
		if h := r.handles[i]; s.slots[h.id-1].gen == h.gen && s.slots[h.id-1].pos == posNear {
			r.nearCancels++
		}
		s.Cancel(r.handles[i])
		r.o.remove(r.events[i])
	}
}

// classify records where a plain post at t lands relative to the heap.
func (r *oracleRun) classify(t units.Time) {
	h := r.s.heap[r.s.hole:] // a hole is not an entry
	if len(h) < 6 {
		return
	}
	e := entry{at: t, seq: r.s.seq}
	second := true
	for c := 1; c <= 4; c++ {
		second = second && before(e, r.s.heap[c])
	}
	switch {
	case r.s.hole == 0 && before(e, h[0]):
		r.frontPosts++
	case second:
		r.secondPosts++
	default:
		r.behindPosts++
	}
}

// check compares every observable the two sides share.
func (r *oracleRun) check(when string) {
	s, o := r.s, &r.o
	if s.Pending() != o.Len() || s.MaxPending() != o.max {
		r.t.Fatalf("%s, after %d dispatches: Pending=%d MaxPending=%d, oracle %d and %d",
			when, r.fired, s.Pending(), s.MaxPending(), o.Len(), o.max)
	}
	// The newest handles plus a stride through the old ones.
	for i := len(r.handles) - 1; i >= 0; i-- {
		if back := len(r.handles) - 1 - i; back > 24 && back%7 != 0 {
			continue
		}
		h, e := r.handles[i], r.events[i]
		at, ok := s.EventTime(h)
		if live := e.idx >= 0; s.Active(h) != live || ok != live || (live && at != e.at) {
			r.t.Fatalf("%s: handle #%d: Active=%v EventTime=%v,%v; oracle pending=%v at %v",
				when, e.id, s.Active(h), at, ok, live, e.at)
		}
	}
}

// TestKernelMatchesOracle replays random programs — typed posts, closures,
// lane posts, cancels of pending, fired and near-run handles, same-instant
// ties, posts from inside handlers that land before the root, before its
// children and behind them, Run stopping at a boundary with the near run
// occupied, Stop from inside a handler — against a container/heap that
// holds every event, and requires the same dispatch sequence and the same
// Pending, MaxPending, Active and EventTime after every step.
func TestKernelMatchesOracle(t *testing.T) {
	var nearStops, fromNear, fromHeap, refills int64
	var nearCancels, front, second, behind, stops, pops int
	for seed := int64(1); seed <= 60; seed++ {
		r := &oracleRun{t: t, s: NewScheduler(), rng: NewRNG(seed)}
		r.s.SetAuditor(audit.New())
		for k := range r.lanes {
			r.lanes[k] = r.s.NewLane(r, 1)
		}
		// A standing backlog, so the heap has a root with children.
		for i := 0; i < 40; i++ {
			r.op()
		}
		for round := 0; round < 60; round++ {
			for i := 0; i < 6; i++ {
				r.op()
				r.check("after op")
			}
			if round%3 == 0 {
				r.s.Step()
			} else {
				r.s.Run(r.s.Now() + units.Time(round%4))
			}
			r.check("after run")
			if err := r.s.VerifyInvariants(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if r.s.nearN > 0 {
				nearStops++
			}
		}
		for r.s.Pending() > 0 { // Stop from a handler ends a Run early
			r.s.Run(units.Never - 1)
		}
		r.check("drained")
		if r.o.Len() != 0 || r.s.aud.Count() != 0 {
			t.Fatalf("seed %d: oracle still holds %d events; audit: %v", seed, r.o.Len(), r.s.aud.Err())
		}
		fromNear += r.s.dispatchNear
		fromHeap += r.s.dispatchHeap
		refills += r.s.rootRefills
		nearCancels, stops, pops = nearCancels+r.nearCancels, stops+r.stops, pops+r.pops
		front, second, behind = front+r.frontPosts, second+r.secondPosts, behind+r.behindPosts
		if got := r.s.dispatchNear + r.s.dispatchLane + r.s.dispatchHeap; got != int64(r.s.Processed) || int(r.s.Processed) != r.fired {
			t.Fatalf("seed %d: near+lane+heap dispatches = %d, Processed = %d, handlers ran %d", seed, got, r.s.Processed, r.fired)
		}
	}
	for name, n := range map[string]int64{
		"dispatches from the near run": fromNear, "dispatches from the heap": fromHeap,
		"root refills": refills, "pops no push filled": int64(pops), "Runs that stopped with the near run occupied": nearStops,
		"cancels of near-run handles": int64(nearCancels), "Stops from a handler": int64(stops),
		"posts before the root": int64(front), "posts before the root's children": int64(second), "posts behind them": int64(behind),
	} {
		if n == 0 {
			t.Errorf("the programs never exercised: %s", name)
		}
	}
}

// TestEnableShardsSpillsNearRun: events waiting in the near run when
// sharding is switched on re-enter the base heap, where the engine seeds
// its windows from, and nothing is admitted to the near run afterwards.
func TestEnableShardsSpillsNearRun(t *testing.T) {
	run := func(shard bool) []any {
		s := NewScheduler()
		s.SetAuditor(audit.New())
		a := &testActor{}
		for i := 0; i < 8; i++ {
			s.PostAfter(units.Duration(50+i), a, 0, fmt.Sprint("far", i))
		}
		h := s.PostAfter(3, a, 0, "n3")
		s.PostAfter(1, a, 0, "n1")
		s.PostAfter(2, a, 0, "n2")
		if s.nearN < 3 || s.slots[h.id-1].pos != posNear {
			t.Fatalf("near run holds %d events and n3 has pos %d; want the three imminent events there", s.nearN, s.slots[h.id-1].pos)
		}
		if shard {
			s.EnableShards(2, 100)
			if s.nearN != 0 || len(s.heap) != 11 || s.Pending() != 11 || s.MaxPending() != 11 {
				t.Fatalf("after EnableShards: near=%d heap=%d pending=%d max=%d", s.nearN, len(s.heap), s.Pending(), s.MaxPending())
			}
			if at, ok := s.EventTime(h); !ok || at != 3 {
				t.Fatalf("spilled handle: EventTime = %v, %v", at, ok)
			}
			if err := s.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		s.PostAfter(0, a, 0, "n0")
		if shard && s.nearN != 0 {
			t.Fatal("a sharded scheduler admitted an event to the near run")
		}
		s.Run(100)
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		if n := s.aud.Count(); n != 0 {
			t.Fatalf("audit: %v", s.aud.Err())
		}
		return a.args
	}
	want, got := fmt.Sprint(run(false)), fmt.Sprint(run(true))
	if order := "[n0 n1 n2 n3 far0 far1 far2 far3 far4 far5 far6 far7]"; want != order {
		t.Errorf("unsharded order %s", want)
	}
	if got != want {
		t.Errorf("sharded order %s, unsharded %s", got, want)
	}
}

// TestAuditCoversNearRun: the kernel's two audit checks look at events
// dispatched from the near run as they do at the heap root.
func TestAuditCoversNearRun(t *testing.T) {
	for _, tc := range []struct {
		invariant string
		damage    func(s *Scheduler)
	}{
		{"clock-monotonic", func(s *Scheduler) { s.now = 10 }},
		{"slot-heap-link", func(s *Scheduler) { s.slots[s.near[s.nearN-1].slot].pos = 0 }},
	} {
		s := NewScheduler()
		aud := audit.New()
		s.SetAuditor(aud)
		s.At(50, func() {})
		s.At(5, func() {})
		if s.nearN == 0 || s.near[s.nearN-1].at != 5 {
			t.Fatalf("the event at 5 is not the near run's front (%d events there)", s.nearN)
		}
		tc.damage(s)
		s.Step()
		if v := aud.Violations(); len(v) != 1 || v[0].Invariant != tc.invariant || s.dispatchNear != 1 {
			t.Errorf("%s: %d dispatches from the near run, violations %v", tc.invariant, s.dispatchNear, v)
		}
	}
}

// TestVerifyInvariantsCatchesNearRunCorruption plants each kind of damage
// the near run and the deferred pop can suffer.
func TestVerifyInvariantsCatchesNearRunCorruption(t *testing.T) {
	for name, damage := range map[string]func(s *Scheduler){
		"unsorted":        func(s *Scheduler) { s.near[0], s.near[1] = s.near[1], s.near[0] },
		"slot not marked": func(s *Scheduler) { s.slots[s.near[0].slot].pos = posFree },
		"count":           func(s *Scheduler) { s.nearN-- },
		"in the past":     func(s *Scheduler) { s.now = 4 },
		"hole left":       func(s *Scheduler) { s.hole = 1 },
	} {
		s := NewScheduler()
		s.At(50, func() {})
		s.At(3, func() {})
		s.At(2, func() {})
		if err := s.VerifyInvariants(); err != nil || s.nearN < 2 {
			t.Fatalf("%s: before the damage: near=%d, %v", name, s.nearN, err)
		}
		damage(s)
		if s.VerifyInvariants() == nil {
			t.Errorf("%s: VerifyInvariants did not notice", name)
		}
	}
}

// TestPanickingHandlerLeavesUsableScheduler: a handler that panics never
// returns to fire, so the root's deferred pop is still pending when the
// caller recovers. Run, Step and Cancel complete it before anything else.
func TestPanickingHandlerLeavesUsableScheduler(t *testing.T) {
	for _, resume := range []string{"Run", "Step", "Cancel"} {
		s := NewScheduler()
		var order []int
		for i := 1; i <= 6; i++ {
			i := i
			s.At(units.Time(10*i), func() { order = append(order, i) })
		}
		// By 45 the near run has drained, so this fires from the heap root.
		s.At(45, func() { panic("handler failed") })
		victim := s.At(55, func() { order = append(order, 55) })
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the handler's panic did not reach Run's caller")
				}
			}()
			s.Run(100)
		}()
		if s.hole != 1 || s.Pending() != 3 || s.VerifyInvariants() == nil {
			t.Fatalf("%s: after the panic hole=%d Pending=%d, want a pending pop that VerifyInvariants reports and 3 events",
				resume, s.hole, s.Pending())
		}
		switch resume {
		case "Run":
			s.Run(46)
		case "Step":
			s.Step()
		case "Cancel":
			s.Cancel(victim)
			victim = s.At(55, func() { order = append(order, 55) })
		}
		if err := s.VerifyInvariants(); err != nil {
			t.Fatalf("%s after a recovered panic: %v", resume, err)
		}
		s.Run(100)
		if fmt.Sprint(order) != "[1 2 3 4 5 55 6]" || s.Pending() != 0 || s.Active(victim) {
			t.Errorf("%s: after resuming fired %v, pending %d", resume, order, s.Pending())
		}
	}
}
