package sim

import (
	"container/heap"
	"fmt"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/units"
)

// oracle is the reference the kernel is replayed against: every pending
// event in one container/heap ordered by (at, seq), lanes and timers
// included. It knows nothing of slots, lane chunks, deferred pops or
// stale timer entries: a timer's Reset is a removal and a post.
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

const oracleLanes, oracleTimers = 3, 4

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
	// timers[k]'s deadline in the oracle is timerEvs[k] (nil before its
	// first Reset)
	timers   [oracleTimers]Timer
	timerEvs [oracleTimers]*oev
	nextID   int
	fired    int
	stops    int
	pops     int // handlers that returned with the root's pop still deferred
	// what the program reached, so the test can insist it reached it all
	liveCancels, frontPosts, behindPosts              int
	laterResets, earlierResets, liveTimerStops, ahead int
}

// timerActor is timer k's handler.
type timerActor struct {
	r *oracleRun
	k int
}

func (a timerActor) OnEvent(int32, any) { a.r.dispatched(a.r.timerEvs[a.k].id) }

// aheadActor is the handler of a DispatchAhead: it runs at its instant
// with nothing popped, and may post, reset and cancel from there.
type aheadActor struct{ r *oracleRun }

func (a aheadActor) OnEvent(_ int32, arg any) {
	r := a.r
	if at := arg.(units.Time); r.s.Now() != at || !r.s.Ahead() {
		r.t.Fatalf("ahead handler runs at %v (ahead %v), want %v", r.s.Now(), r.s.Ahead(), at)
	}
	r.check("ahead of the clock")
	for n := r.rng.Intn(4); n > 0; n-- {
		r.op()
	}
}

// delays mixes the imminent with the far so that posts land before the
// root and deep in the heap.
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
	switch k := r.rng.Intn(18); {
	case k < 5: // typed post
		r.classify(t)
		r.handles = append(r.handles, s.PostAt(t, r, 0, id))
		r.events = append(r.events, r.o.post(t, id, -1))
	case k < 7: // closure
		r.classify(t)
		r.handles = append(r.handles, fnAfter(s, d, func() { r.dispatched(id) }))
		r.events = append(r.events, r.o.post(t, id, -1))
	case k < 10: // lane post
		l := r.rng.Intn(oracleLanes)
		r.lanes[l].PostAfter(d, id)
		r.o.post(t, id, l)
	case k < 12: // cancel any handle: pending, fired, recycled
		if len(r.handles) == 0 {
			return
		}
		i := r.rng.Intn(len(r.handles))
		if s.Active(r.handles[i]) {
			r.liveCancels++
		}
		s.Cancel(r.handles[i])
		r.o.remove(r.events[i])
	case k < 15: // reset a timer, armed or not, to a later or earlier key
		i := r.rng.Intn(oracleTimers)
		if e := r.timerEvs[i]; e != nil && e.idx >= 0 {
			if t < e.at {
				r.earlierResets++
			} else {
				r.laterResets++
			}
			r.o.remove(e)
		}
		if k == 12 {
			r.timers[i].Reset(t)
		} else {
			r.timers[i].ResetAfter(d)
		}
		r.timerEvs[i] = r.o.post(t, id, -1)
	case k < 16: // stop a timer, armed or not
		i := r.rng.Intn(oracleTimers)
		if e := r.timerEvs[i]; e != nil {
			if e.idx >= 0 {
				r.liveTimerStops++
			}
			r.o.remove(e)
		}
		r.timers[i].Stop()
	default: // dispatch ahead, but not from a handler dispatched ahead
		if !s.Ahead() {
			r.ahead++
			s.DispatchAhead(t, aheadActor{r}, 0, t)
		}
	}
}

// timerPtrs returns the run's timers, for VerifyInvariants.
func (r *oracleRun) timerPtrs() []*Timer {
	ts := make([]*Timer, oracleTimers)
	for i := range r.timers {
		ts[i] = &r.timers[i]
	}
	return ts
}

// classify records whether a plain post at t lands before the heap root
// or behind it; a post that fills the firing root's hole is neither.
func (r *oracleRun) classify(t units.Time) {
	if r.s.hole != 0 || len(r.s.heap) == 0 {
		return
	}
	if (entry{at: t, seq: r.s.seq}).before(r.s.heap[0]) != 0 {
		r.frontPosts++
	} else {
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
		if live := e.idx >= 0; s.Active(h) != live {
			r.t.Fatalf("%s: handle #%d: Active=%v; oracle pending=%v", when, e.id, s.Active(h), live)
		}
	}
	for i, e := range r.timerEvs {
		if live := e != nil && e.idx >= 0; r.timers[i].Active() != live {
			r.t.Fatalf("%s: timer %d: Active=%v; oracle pending=%v", when, i, r.timers[i].Active(), live)
		}
	}
}

// replayOracle replays the random program seed draws — typed posts,
// closures, lane posts, cancels of pending, fired and recycled handles,
// timer resets to later and earlier keys and stops, dispatches ahead,
// same-instant ties, posts from inside handlers that land before the root
// and behind it, Run stopping at a boundary, Stop from inside a handler —
// against a container/heap that holds every event, and requires the same
// dispatch sequence and the same Pending, MaxPending and Active after
// every step.
func replayOracle(t *testing.T, seed int64) *oracleRun {
	r := &oracleRun{t: t, s: NewScheduler(), rng: NewRNG(seed)}
	r.s.SetAuditor(audit.New())
	for k := range r.lanes {
		r.lanes[k] = r.s.NewLane(r, 1)
	}
	for k := range r.timers {
		r.timers[k] = r.s.NewTimer(timerActor{r, k}, 2)
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
		if err := r.s.VerifyInvariants(r.timerPtrs()...); err != nil {
			t.Fatalf("seed %d round %d: %v", seed, round, err)
		}
	}
	for r.s.Pending() > 0 { // Stop from a handler ends a Run early
		r.s.Run(units.Never - 1)
	}
	r.check("drained")
	if r.o.Len() != 0 || r.s.aud.Count() != 0 {
		t.Fatalf("seed %d: oracle still holds %d events; audit: %v", seed, r.o.Len(), r.s.aud.Err())
	}
	if got := r.s.dispatchLane + r.s.dispatchHeap; got != int64(r.s.Processed) || int(r.s.Processed) != r.fired {
		t.Fatalf("seed %d: lane+heap dispatches = %d, Processed = %d, handlers ran %d", seed, got, r.s.Processed, r.fired)
	}
	return r
}

// TestKernelMatchesOracle replays 60 seeded programs and insists that,
// together, they reached every path the oracle is there to check.
func TestKernelMatchesOracle(t *testing.T) {
	var fromLane, fromHeap, refills, rekeys int64
	var liveCancels, front, behind, stops, pops, later, earlier, timerStops, ahead int
	for seed := int64(1); seed <= 60; seed++ {
		r := replayOracle(t, seed)
		fromLane += r.s.dispatchLane
		fromHeap += r.s.dispatchHeap
		refills += r.s.rootRefills
		rekeys += r.s.timerRekeys
		liveCancels, stops, pops = liveCancels+r.liveCancels, stops+r.stops, pops+r.pops
		front, behind = front+r.frontPosts, behind+r.behindPosts
		later, earlier, timerStops, ahead = later+r.laterResets, earlier+r.earlierResets, timerStops+r.liveTimerStops, ahead+r.ahead
	}
	for name, n := range map[string]int64{
		"dispatches from a lane": fromLane, "dispatches from the heap": fromHeap,
		"root refills": refills, "pops no push filled": int64(pops),
		"cancels of pending handles": int64(liveCancels), "Stops from a handler": int64(stops),
		"posts before the root": int64(front), "posts behind it": int64(behind),
		"resets of armed timers to a later key": int64(later), "resets to an earlier key": int64(earlier),
		"stale timer entries re-keyed": rekeys, "stops of armed timers": int64(timerStops),
		"dispatches ahead": int64(ahead),
	} {
		if n == 0 {
			t.Errorf("the programs never exercised: %s", name)
		}
	}
}

// TestCancelThenPostFillsHole: a handler that cancels a pending event and
// then posts, as a TCP sender restarting its retransmission timer does,
// keeps the root's pop deferred across the Cancel, so the post fills the
// hole; the run still matches the oracle.
func TestCancelThenPostFillsHole(t *testing.T) {
	s, o, aud := NewScheduler(), &oracle{}, audit.New()
	s.SetAuditor(aud)
	handles, evs := map[int]Event{}, map[int]*oev{}
	var post func(at units.Time, id int)
	post = func(at units.Time, id int) {
		handles[id] = fnAt(s, at, func() {
			if want := o.pop(); want.id != id || want.at != s.Now() {
				t.Fatalf("kernel fired #%d at %v, oracle #%d at %v", id, s.Now(), want.id, want.at)
			}
			if id != 1 {
				return
			}
			s.Cancel(handles[2])
			o.remove(evs[2])
			if s.hole != 1 || s.Active(handles[2]) {
				t.Fatalf("after Cancel: hole=%d, cancelled event active=%v", s.hole, s.Active(handles[2]))
			}
			post(25, 9)
			if s.hole != 0 || s.rootRefills != 1 {
				t.Fatalf("after the post: hole=%d, root refills=%d; want the post to fill the hole", s.hole, s.rootRefills)
			}
		})
		evs[id] = o.post(at, id, -1)
	}
	for i, at := range []units.Time{10, 20, 30, 40, 50, 60, 70} {
		post(at, i+1)
	}
	s.Run(units.Never - 1)
	if err := s.VerifyInvariants(); err != nil || s.Processed != 7 || o.Len() != 0 || s.MaxPending() != o.max || aud.Count() != 0 {
		t.Errorf("fired %d, oracle left %d, MaxPending %d vs %d, invariants %v, audit %v",
			s.Processed, o.Len(), s.MaxPending(), o.max, err, aud.Err())
	}
}

// FuzzKernelMatchesOracle replays the program any seed draws, beyond the
// 60 the test pins.
func FuzzKernelMatchesOracle(f *testing.F) {
	for _, seed := range []int64{1, 2, 61, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { replayOracle(t, seed) })
}

// TestShardedAuditClean: a parallel sweep runs its simulations each on
// its own Scheduler and goroutine, so schedulers must share no state.
// Eight oracle replays run at once, each under its own auditor, and each
// must still match its oracle with zero audit violations.
func TestShardedAuditClean(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			replayOracle(t, seed)
		})
	}
}

// TestAuditCoversHeapRoot plants a fault under each of the kernel's two
// audit checks on the event about to fire from the heap root: a clock
// already past it, and a root whose slot records another heap index.
func TestAuditCoversHeapRoot(t *testing.T) {
	for _, tc := range []struct {
		invariant string
		damage    func(s *Scheduler)
	}{
		{"clock-monotonic", func(s *Scheduler) { s.now = 10 }},
		{"slot-heap-link", func(s *Scheduler) { s.slots[s.heap[0].slot].pos = 1 }},
	} {
		s := NewScheduler()
		aud := audit.New()
		s.SetAuditor(aud)
		fnAt(s, 50, func() {})
		fnAt(s, 5, func() {})
		if s.heap[0].at != 5 {
			t.Fatalf("the heap root fires at %v, want 5", s.heap[0].at)
		}
		tc.damage(s)
		s.Step()
		if v := aud.Violations(); len(v) != 1 || v[0].Invariant != tc.invariant || s.dispatchHeap != 1 {
			t.Errorf("%s: %d dispatches from the heap, violations %v", tc.invariant, s.dispatchHeap, v)
		}
	}
}

// TestVerifyInvariantsCatchesDeferredPop: a root pop still deferred
// between events is reported.
func TestVerifyInvariantsCatchesDeferredPop(t *testing.T) {
	s := NewScheduler()
	fnAt(s, 50, func() {})
	fnAt(s, 3, func() {})
	if err := s.VerifyInvariants(); err != nil {
		t.Fatalf("before the damage: %v", err)
	}
	s.hole = 1
	if s.VerifyInvariants() == nil {
		t.Error("VerifyInvariants did not notice a hole left at the root")
	}
}

// TestPanickingHandlerLeavesUsableScheduler: a handler that panics never
// returns to fire, so the root's deferred pop is still pending when the
// caller recovers. Run and Step complete it before anything else; after a
// Cancel the next post fills it.
func TestPanickingHandlerLeavesUsableScheduler(t *testing.T) {
	for _, resume := range []string{"Run", "Step", "Cancel"} {
		s := NewScheduler()
		var order []int
		for i := 1; i <= 6; i++ {
			i := i
			fnAt(s, units.Time(10*i), func() { order = append(order, i) })
		}
		fnAt(s, 45, func() { panic("handler failed") })
		victim := fnAt(s, 55, func() { order = append(order, 55) })
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
			victim = fnAt(s, 55, func() { order = append(order, 55) })
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
