// Package sim implements the discrete-event simulation kernel that drives
// everything else: a clock, a pending-event priority queue, cancellable
// timers, and FIFO lanes for events that are already in order.
//
// Determinism matters more for a reproduction study than parallel speed:
// two runs with the same seed must schedule, drop and acknowledge exactly
// the same packets. Every event is keyed by (time, seq), seq being the
// order of the scheduling calls, and events fire in exactly that order —
// so events at the same instant fire in the order they were scheduled.
// The kernel runs on one goroutine.
//
// # Throughput design
//
// Sweeping the paper's figures means hundreds of packet-level runs, so the
// kernel is built to schedule and fire tens of millions of events per
// second without allocating on the hot path:
//
//   - Events live in a pooled slot array, recycled through a free list.
//     Handles (Event) carry a generation counter, so Cancel on a handle
//     whose slot has been recycled is a safe no-op rather than a
//     use-after-free.
//   - The pending queue is a concrete 4-ary min-heap of inline
//     {time, seq, slot} entries — no interface boxing, no per-node heap
//     allocation, and a shallower tree with better cache locality than
//     container/heap's pointer-based binary heap.
//   - Every event is typed: an Actor owner, an opcode, and a
//     pointer-shaped argument, posted with PostAt/PostAfter. There is no
//     closure-posting path, so steady-state simulation allocates nothing
//     per event.
//   - Events whose fire times are already sorted — packets propagating
//     down one wire — go through a Lane (lane.go): each reserves its
//     (time, seq) key when posted, but only the lane's head occupies the
//     heap, so heap depth follows the number of wires rather than the
//     number of packets in flight.
//   - A firing root stays in the heap as a hole while its handler runs,
//     so the handler's first post costs one siftDown instead of a pop
//     and a push.
//   - Sifts pick the earliest child without a data-dependent branch: keys
//     compare as one 128-bit number through a subtraction borrow
//     (precedes), and four children are reduced as a tournament whose
//     winner's index is arithmetic.
//   - An event whose outcome is settled when it is posted need not wait
//     at all: DispatchAhead runs it at once with the clock reading its
//     time (a link handing a packet to a receiver when it admits it).
//   - A Timer whose deadline moves later (a retransmission timer restarted
//     by every ACK) keeps its heap entry: the entry takes the reserved key
//     only when it reaches the root (Timer).
package sim

import (
	"fmt"
	"math/bits"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

// Actor receives typed events. Components on the per-packet path (TCP
// senders and receivers, links, traffic generators) implement OnEvent and
// schedule themselves with PostAt/PostAfter; op is an opcode private to
// the actor and arg is the payload it passed when scheduling (typically a
// *packet.Packet or nil — pointer-shaped values avoid boxing).
type Actor interface {
	OnEvent(op int32, arg any)
}

// Event is a handle to a scheduled event, issued by PostAt/PostAfter. It
// is a small value, not a pointer: the event's storage belongs to the
// scheduler's pool and is recycled after the event fires or is cancelled.
// A stale handle (kept after its event fired) is detected by generation
// counter, so Cancel and Active on it are safe. The zero Event is a valid
// "no event" handle.
//
// Handles are not comparable: after a slot is recycled an equal-looking
// handle can denote a different event, so == and map keys on them are
// compile errors. Ask Active instead.
type Event struct {
	_   [0]func() // makes Event incomparable; occupies no space
	id  int32     // slot index + 1; 0 is the zero handle
	gen uint32    // slot generation this handle was issued for
}

// posFree is slot.pos for a slot that is not pending; a pending event's
// pos is its heap index.
const posFree int32 = -1

// slot.kind values.
const (
	kindEvent uint8 = iota
	kindLane
	kindTimer
)

// slot is the pooled storage behind one scheduled event.
type slot struct {
	gen   uint32 // incremented on every recycle; stale handles mismatch
	pos   int32  // index in the heap while pending, else posFree
	op    int32
	kind  uint8 // kindEvent; kindLane: arg is the *Lane whose head this is; kindTimer
	actor Actor
	arg   any
	// The key reserved when posted (a Timer's: at its last Reset). It fills
	// the slot to 64 bytes, one cache line: at 56 bytes slots straddle
	// lines and longlived_30 ran 6.6% slower.
	at  units.Time
	seq uint64
}

// entry is one pending-queue element. The ordering key (time, then
// scheduling sequence for FIFO ties) is stored inline so heap sifts never
// chase pointers.
type entry struct {
	at   units.Time
	seq  uint64
	slot int32
}

// precedes is 1 if the key (at, seq) sorts strictly before (bAt, bSeq)
// and 0 otherwise: the borrow out of the 128-bit subtraction of the two
// keys, time's sign bit flipped so that signed order becomes unsigned
// order. It has no data-dependent branch, so heap sifts can select a child
// with it arithmetically. Every heap in the package compares through it.
func precedes(at units.Time, seq uint64, bAt units.Time, bSeq uint64) int {
	_, borrow := bits.Sub64(seq, bSeq, 0)
	_, borrow = bits.Sub64(uint64(at)^1<<63, uint64(bAt)^1<<63, borrow)
	return int(borrow)
}

// before is 1 if a fires strictly before b, else 0.
func (a entry) before(b entry) int { return precedes(a.at, a.seq, b.at, b.seq) }

// Scheduler is the simulation event loop. The zero value is not usable;
// call NewScheduler.
type Scheduler struct {
	now        units.Time
	seq        uint64
	heap       []entry
	slots      []slot
	free       []int32
	maxPending int
	stopped    bool
	aud        *audit.Auditor

	// hole is 1 while heap[0] has fired and its pop waits for the
	// handler's pushes (fire).
	hole int
	// Dispatches by source (lane and heap sum to Processed; ahead is not
	// in it), holes a push filled and stale timer entries re-keyed.
	dispatchLane, dispatchHeap, dispatchAhead, rootRefills, timerRekeys int64
	// ahead is set while a DispatchAhead handler runs.
	ahead bool

	// Lane storage (lane.go): one pooled slab of item chunks for every
	// lane, threaded into per-lane FIFOs and a free list through laneNext.
	laneChunks    []laneChunk
	laneNext      []int32
	laneFree      int32 // head of the free list, laneNil when empty
	laneQueued    int   // items waiting behind their lane's head
	maxLaneQueued int
	laneFallbacks int64 // out-of-order lane posts sent through the heap

	// Processed counts the events executed so far; useful for
	// benchmarking the kernel itself.
	Processed uint64
}

// NewScheduler returns a scheduler with the clock at the simulation epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{laneFree: laneNil}
}

// Now returns the current simulated time.
func (s *Scheduler) Now() units.Time { return s.now }

// SetAuditor attaches an invariant checker to the kernel: every fired
// event is checked for clock monotonicity and slot/heap cross-link
// consistency. A nil auditor (the default) disables the checks.
func (s *Scheduler) SetAuditor(a *audit.Auditor) { s.aud = a }

// Pending returns the number of events waiting to fire: heap entries and
// the lane items queued behind their lane's head.
func (s *Scheduler) Pending() int {
	return len(s.heap) - s.hole + s.laneQueued
}

// MaxPending returns the most events that have waited outside lanes at
// once, that is the heap's peak depth (sim.heap_depth_max).
func (s *Scheduler) MaxPending() int { return s.maxPending }

// Active reports whether e refers to an event that is still pending: not
// yet fired, not cancelled, and not a recycled slot now owned by some
// later event. The zero Event is never active.
func (s *Scheduler) Active(e Event) bool {
	if e.id == 0 {
		return false
	}
	sl := &s.slots[e.id-1]
	return sl.gen == e.gen && sl.pos >= 0
}

// allocSlot takes a slot from the free list, growing the pool on demand.
func (s *Scheduler) allocSlot() int32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// release recycles a slot: the generation bump invalidates every
// outstanding handle, and clearing the references lets fired payloads be
// collected.
func (s *Scheduler) release(id int32) {
	sl := &s.slots[id]
	sl.gen++
	sl.pos = posFree
	sl.actor = nil
	sl.arg = nil
	sl.kind = kindEvent
	s.free = append(s.free, id)
}

// PostAt schedules a typed event: at time t the kernel calls
// a.OnEvent(op, arg). Scheduling in the past panics: it always indicates
// a logic error in a component, and silently reordering time would
// corrupt every downstream measurement.
func (s *Scheduler) PostAt(t units.Time, a Actor, op int32, arg any) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	id := s.allocSlot()
	sl := &s.slots[id]
	sl.actor, sl.op, sl.arg, sl.at, sl.seq = a, op, arg, t, s.seq
	s.push(entry{at: t, seq: s.seq, slot: id})
	s.seq++
	return Event{id: id + 1, gen: sl.gen}
}

// push inserts e into the heap and tracks the depth high-water mark.
func (s *Scheduler) push(e entry) {
	if s.hole != 0 { // the firing root's place: one siftDown, not pop + push
		s.hole = 0
		s.rootRefills++
		s.heap[0] = e
		s.siftDown(0)
		return
	}
	i := len(s.heap)
	s.heap = append(s.heap, e)
	s.siftUp(i)
	s.maxPending = max(s.maxPending, len(s.heap))
}

// settle completes a deferred root pop that no push filled.
func (s *Scheduler) settle() {
	if s.hole != 0 {
		s.hole = 0
		s.popRoot()
	}
}

// PostAfter schedules a typed event d from now.
func (s *Scheduler) PostAfter(d units.Duration, a Actor, op int32, arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.PostAt(s.now.Add(d), a, op, arg)
}

// Cancel removes a pending event. Cancelling the zero handle, an event
// that already fired, one already cancelled, or a handle whose slot has
// been recycled by a later event is a no-op, so callers can cancel
// unconditionally. A deferred root pop stays deferred: the hole's key
// precedes every pending one, so removeAt never moves an entry above it,
// and the handler's next post can still fill it.
func (s *Scheduler) Cancel(e Event) {
	if !s.Active(e) {
		return
	}
	s.removeAt(int(s.slots[e.id-1].pos))
	s.release(e.id - 1)
}

// Timer is a re-armable event for one (actor, op), such as a TCP
// retransmission timer. Each Reset reserves the (time, seq) key a Cancel
// and a fresh PostAt would have drawn, and the timer fires at exactly that
// key, but it keeps one heap entry while armed: a Reset to a later key
// leaves the entry where it is, and when the stale entry reaches the root
// the kernel gives it the reserved key and sifts it down
// (sim.timer_rekeys; no dispatch). A Reset to an earlier key moves it up.
// Create one with NewTimer; a Timer must not be copied once armed.
type Timer struct {
	s     *Scheduler
	actor Actor
	op    int32
	ev    Event // the entry while armed
}

// NewTimer returns an unarmed timer calling a.OnEvent(op, nil).
func (s *Scheduler) NewTimer(a Actor, op int32) Timer {
	return Timer{s: s, actor: a, op: op}
}

// Active reports whether the timer is armed and has not fired.
func (t *Timer) Active() bool { return t.s.Active(t.ev) }

// ResetAfter arms the timer to fire d from now (see Reset).
func (t *Timer) ResetAfter(d units.Duration) { t.Reset(t.s.now.Add(d)) }

// Reset arms the timer to fire at at, in place of any deadline it had. A
// time before now panics, as for PostAt.
func (t *Timer) Reset(at units.Time) {
	s := t.s
	if !s.Active(t.ev) {
		t.ev = s.PostAt(at, t.actor, t.op, nil)
		s.slots[t.ev.id-1].kind = kindTimer
		return
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	seq := s.seq
	s.seq++
	sl := &s.slots[t.ev.id-1]
	sl.at, sl.seq = at, seq
	// An earlier key never rises above a deferred pop's hole (see Cancel).
	if i := int(sl.pos); precedes(at, seq, s.heap[i].at, s.heap[i].seq) != 0 {
		s.heap[i].at, s.heap[i].seq = at, seq
		s.siftUp(i)
	}
}

// Stop disarms the timer; stopping one that is not armed is a no-op.
func (t *Timer) Stop() { t.s.Cancel(t.ev) }

// removeAt deletes the heap entry at index i, restoring heap order.
func (s *Scheduler) removeAt(i int) {
	last := len(s.heap) - 1
	if i == last {
		s.heap = s.heap[:last]
		return
	}
	moved := s.heap[last]
	s.heap = s.heap[:last]
	s.heap[i] = moved
	s.slots[moved.slot].pos = int32(i)
	if p := (i - 1) / 4; i > 0 && moved.before(s.heap[p]) != 0 {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// siftUp restores heap order from index i toward the root.
func (s *Scheduler) siftUp(i int) {
	e := s.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if e.before(s.heap[p]) == 0 {
			break
		}
		s.heap[i] = s.heap[p]
		s.slots[s.heap[i].slot].pos = int32(i)
		i = p
	}
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// siftDown restores heap order from index i toward the leaves. A full
// group of four children is reduced as a tournament — min(0,1), min(2,3),
// then the smaller winner — whose indexes are arithmetic on precedes'
// bits (an if/else select compiles to a jump; &3 drops the bounds
// checks), so picking the child costs no data-dependent branch. The
// partial last group and the exit compare still branch.
func (s *Scheduler) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			h := s.heap[c : c+4 : c+4]
			m01 := h[1].before(h[0])
			m23 := 2 + h[3].before(h[2])
			m += m01 + h[m23&3].before(h[m01&3])*(m23-m01)
		} else {
			for j := c + 1; j < n; j++ {
				if s.heap[j].before(s.heap[m]) != 0 {
					m = j
				}
			}
		}
		if s.heap[m].before(e) == 0 {
			break
		}
		s.heap[i] = s.heap[m]
		s.slots[s.heap[i].slot].pos = int32(i)
		i = m
	}
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// popRoot removes the heap minimum, restoring heap order.
func (s *Scheduler) popRoot() {
	last := len(s.heap) - 1
	if last > 0 {
		moved := s.heap[last]
		s.heap = s.heap[:last]
		s.heap[0] = moved
		s.slots[moved.slot].pos = 0
		s.siftDown(0)
	} else {
		s.heap = s.heap[:0]
	}
}

// fire dispatches the earliest event if it is due by until. The
// slot is recycled before dispatch, so the handler is free to schedule
// (possibly reusing the very slot that just fired). A lane's head hands
// its heap entry to the item behind it instead (fireLane), and a timer's
// stale entry takes its reserved key and sinks, which is no dispatch.
// A plain root stays in place as a hole while its handler runs: the
// handler's first push overwrites it, and only a handler that pushed
// nothing pays the pop (settle).
func (s *Scheduler) fire(until units.Time) bool {
	if len(s.heap) == 0 || s.heap[0].at > until {
		return false
	}
	top := s.heap[0]
	sl := &s.slots[top.slot]
	for sl.kind == kindTimer && (top.at != sl.at || top.seq != sl.seq) {
		s.heap[0].at, s.heap[0].seq = sl.at, sl.seq
		s.siftDown(0)
		s.timerRekeys++
		if top = s.heap[0]; top.at > until {
			return false
		}
		sl = &s.slots[top.slot]
	}
	if s.aud != nil {
		if top.at < s.now {
			s.aud.Violationf(s.now, "sim", "clock-monotonic",
				"event at %v fires after clock reached %v", top.at, s.now)
		}
		if sl.pos != 0 {
			s.aud.Violationf(s.now, "sim", "slot-heap-link",
				"heap root references slot %d with pos %d (stale or recycled slot about to fire)", top.slot, sl.pos)
		}
	}
	if sl.kind == kindLane {
		s.fireLane(sl.arg.(*Lane), top)
		return true
	}
	s.hole = 1
	s.dispatchHeap++
	actor, op, arg := sl.actor, sl.op, sl.arg
	s.release(top.slot)
	s.now = top.at
	s.Processed++
	actor.OnEvent(op, arg)
	s.settle()
	return true
}

// DispatchAhead calls a.OnEvent(op, arg) at once with the clock reading
// t, a time not before now, and then puts the clock back. It is for an
// event whose effects are settled when it is posted — a link handing a
// packet to a receiver that reacts to nothing but its own flow's earlier
// packets — so it never waits in the heap; whatever the handler posts is
// keyed from t and the seq it posts at. It is not counted in Processed
// (sim.dispatch_ahead counts it) and must not be called from inside
// itself. A handler that panics leaves the clock at t and the scheduler
// marked ahead.
func (s *Scheduler) DispatchAhead(t units.Time, a Actor, op int32, arg any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: dispatching ahead to %v before now %v", t, s.now))
	}
	if s.ahead {
		panic("sim: DispatchAhead called from a handler it dispatched")
	}
	now := s.now
	s.ahead, s.now = true, t
	s.dispatchAhead++
	a.OnEvent(op, arg)
	s.ahead, s.now = false, now
}

// Ahead reports whether the running handler was dispatched ahead
// (DispatchAhead): events due before Now may still be pending, so an
// effect that must keep its place among them is posted at Now instead of
// taken at once.
func (s *Scheduler) Ahead() bool { return s.ahead }

// Instrument registers the kernel's telemetry into reg: events processed,
// by source (sim.dispatch_lane and sim.dispatch_heap, which sum to them;
// sim.dispatch_ahead, which is not among them; sim.root_refills), stale
// timer entries given their reserved key (sim.timer_rekeys), current
// and peak heap depth (sim.heap_depth*), current and peak lane items
// queued behind their lane's head (sim.lane_depth*; heap + lane =
// Pending), out-of-order lane posts, and the simulated clock. Values are
// published by a snapshot-time collector, so instrumentation adds no
// per-event work and cannot perturb scheduling. A nil registry is a no-op.
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	events := reg.Counter("sim.events_processed")
	depth := reg.Gauge("sim.heap_depth")
	depthMax := reg.Gauge("sim.heap_depth_max")
	laneDepth := reg.Gauge("sim.lane_depth")
	laneDepthMax := reg.Gauge("sim.lane_depth_max")
	laneFallbacks := reg.Counter("sim.lane_fallbacks")
	clock := reg.Gauge("sim.time_seconds")
	fromLane, fromHeap := reg.Counter("sim.dispatch_lane"), reg.Counter("sim.dispatch_heap")
	ahead, refills := reg.Counter("sim.dispatch_ahead"), reg.Counter("sim.root_refills")
	rekeys := reg.Counter("sim.timer_rekeys")
	reg.OnCollect(func() {
		events.Set(int64(s.Processed))
		fromLane.Set(s.dispatchLane)
		fromHeap.Set(s.dispatchHeap)
		ahead.Set(s.dispatchAhead)
		refills.Set(s.rootRefills)
		rekeys.Set(s.timerRekeys)
		depth.Set(float64(len(s.heap) - s.hole))
		depthMax.Set(float64(s.maxPending))
		laneDepth.Set(float64(s.laneQueued))
		laneDepthMax.Set(float64(s.maxLaneQueued))
		laneFallbacks.Set(s.laneFallbacks)
		clock.Set(s.now.Seconds())
	})
}

// Stop makes Run return after the event currently executing completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Run executes events in order until the clock would pass `until`, no
// events remain, or Stop is called. Unless Stop was called, the clock is
// left at `until`, also when the queue drained earlier; after Stop it
// stays at the last event's time.
func (s *Scheduler) Run(until units.Time) {
	s.settle() // a handler that panicked last time left its pop pending
	s.stopped = false
	for !s.stopped && s.fire(until) {
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// Step executes exactly one event if any is pending and returns whether an
// event was executed. Useful in tests.
func (s *Scheduler) Step() bool {
	s.settle()
	return s.fire(units.Never)
}

// VerifyInvariants exhaustively checks the kernel's internal structure:
// heap order, heap-entry/slot cross-links, free-list consistency, that no
// slot is both pending and free, that no pop is still deferred (call it
// between events), that no timer entry is keyed after its reserved key,
// that the timers given, if all of s's, and the heap's timer entries are
// as many, and the lane invariants (see verifyLanes). It is O(pool size)
// and meant for tests and the fuzz harness, not the hot path. It returns
// the first problem found, or nil.
func (s *Scheduler) VerifyInvariants(timers ...*Timer) error {
	if s.hole != 0 {
		return fmt.Errorf("sim: the root's deferred pop outlived its handler")
	}
	for i := 1; i < len(s.heap); i++ {
		p := (i - 1) / 4
		if s.heap[i].before(s.heap[p]) != 0 {
			return fmt.Errorf("sim: heap order violated at index %d: child (at=%v seq=%d) before parent (at=%v seq=%d)",
				i, s.heap[i].at, s.heap[i].seq, s.heap[p].at, s.heap[p].seq)
		}
	}
	surplus := 0 // timers armed less timer entries in the heap
	inHeap := make(map[int32]int, len(s.heap))
	for i, e := range s.heap {
		if e.at < s.now {
			return fmt.Errorf("sim: pending event at %v is before now %v", e.at, s.now)
		}
		if e.slot < 0 || int(e.slot) >= len(s.slots) {
			return fmt.Errorf("sim: heap index %d references slot %d outside pool of %d", i, e.slot, len(s.slots))
		}
		if prev, dup := inHeap[e.slot]; dup {
			return fmt.Errorf("sim: slot %d appears in heap twice (indexes %d and %d)", e.slot, prev, i)
		}
		inHeap[e.slot] = i
		sl := &s.slots[e.slot]
		if got := sl.pos; got != int32(i) {
			return fmt.Errorf("sim: slot %d at heap index %d records pos %d", e.slot, i, got)
		}
		if sl.kind == kindTimer {
			surplus--
			if precedes(sl.at, sl.seq, e.at, e.seq) != 0 {
				return fmt.Errorf("sim: timer entry (at=%v seq=%d) is keyed after its reserved key (at=%v seq=%d)", e.at, e.seq, sl.at, sl.seq)
			}
		}
	}
	for _, t := range timers {
		if t.Active() {
			surplus++
		}
	}
	if len(timers) > 0 && surplus != 0 {
		return fmt.Errorf("sim: %d more timers armed than timer entries in the heap", surplus)
	}
	inFree := make(map[int32]bool, len(s.free))
	for _, id := range s.free {
		if id < 0 || int(id) >= len(s.slots) {
			return fmt.Errorf("sim: free list references slot %d outside pool of %d", id, len(s.slots))
		}
		if inFree[id] {
			return fmt.Errorf("sim: slot %d appears in free list twice", id)
		}
		inFree[id] = true
		if _, pending := inHeap[id]; pending {
			return fmt.Errorf("sim: slot %d is both pending and free", id)
		}
		if got := s.slots[id].pos; got != posFree {
			return fmt.Errorf("sim: free slot %d records pos %d", id, got)
		}
	}
	if len(s.heap)+len(s.free) != len(s.slots) {
		return fmt.Errorf("sim: %d in heap + %d free != %d slots", len(s.heap), len(s.free), len(s.slots))
	}
	return s.verifyLanes()
}
