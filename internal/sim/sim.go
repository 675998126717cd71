// Package sim implements the discrete-event simulation kernel that drives
// everything else: a clock, a pending-event priority queue, cancellable
// timers, and FIFO lanes for events that are already in order.
//
// Determinism matters more for a reproduction study than parallel speed:
// two runs with the same seed must schedule, drop and acknowledge exactly
// the same packets. Every event is keyed by (time, seq), seq being the
// order of the scheduling calls, and events fire in exactly that order —
// so events at the same instant fire in the order they were scheduled.
// The default kernel runs on one goroutine; EnableShards (shard.go) runs
// the same schedule on several and reproduces that order bit for bit.
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
//   - Hot callers schedule typed events (an Actor owner, an opcode, and a
//     pointer-shaped argument) via PostAt/PostAfter instead of closures,
//     so steady-state simulation allocates nothing per event. The
//     closure-based At/After remain for cold paths (experiment setup,
//     sampling) where convenience beats the one closure allocation.
//   - Events whose fire times are already sorted — packets propagating
//     down one wire — go through a Lane (lane.go): each reserves its
//     (time, seq) key when posted, but only the lane's head occupies the
//     heap, so heap depth follows the number of wires rather than the
//     number of packets in flight.
//   - Events about to fire skip the sifts: one that would be first or
//     second out of the heap waits in a four-entry sorted near run instead,
//     and a firing root stays as a hole for its handler's first push.
package sim

import (
	"fmt"

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

// Event is a handle to a scheduled event, issued by At/After and
// PostAt/PostAfter. It is a small value, not a pointer: the event's
// storage belongs to the scheduler's pool and is recycled after the event
// fires or is cancelled. A stale handle (kept after its event fired) is
// detected by generation counter, so Cancel and Active on it are safe.
// The zero Event is a valid "no event" handle.
type Event struct {
	id  int32  // arena<<arenaShift | slot index + 1; 0 is the zero handle
	gen uint32 // slot generation this handle was issued for
}

// Handle encoding. The low 24 bits carry the slot index + 1 within an
// arena; the bits above select the arena. Arena 0 is the scheduler's own
// pool, so for an unsharded scheduler every handle keeps the historical
// slot+1 form. Arena k+1 is shard k's local pool when sharding is enabled
// (see shard.go). The 24-bit index bounds a sharded run to ~16.7M live
// slots per arena; allocSlot panics past that rather than aliasing.
const (
	arenaShift = 24
	idxMask    = 1<<arenaShift - 1
)

func handleFor(arena, idx int32) int32 { return arena<<arenaShift | (idx + 1) }
func handleArena(id int32) int32       { return id >> arenaShift }
func handleIdx(id int32) int32         { return id&idxMask - 1 }

// slot.pos sentinels. Non-negative pos is the heap index while pending.
// posNear is a pending event that waits in the near run instead.
// During a parallel window a slot seeded into a shard's local heap stores
// posSeedBase-localIndex (always <= posSeedBase), so the owning shard can
// remove it on cancel; posSeedFired / posSeedCancelled record how the
// seed left the window until the barrier recycles it.
const (
	posFree          int32 = -1
	posSeedFired     int32 = -2
	posSeedCancelled int32 = -3
	posNear          int32 = -4
	posSeedBase      int32 = -10
)

// slot.kind values. kind sits in the padding after defc: the slot stays
// 64 bytes (one cache line), which the sharded engine's seed scan is
// measurably sensitive to.
const (
	kindEvent uint8 = iota
	kindLane
)

// slot is the pooled storage behind one scheduled event.
type slot struct {
	gen     uint32 // incremented on every recycle; stale handles mismatch
	pos     int32  // index in the heap while pending, else a sentinel above
	op      int32
	shard   int32 // event class: owning shard, or globalClass (sequential)
	backRef int32 // shard-local shell forwarded onto this slot (0 = none)
	defc    bool  // cancelled mid-window; the barrier applies the removal
	kind    uint8 // kindEvent, or kindLane: arg is the *Lane whose head this is
	actor   Actor
	arg     any
	fn      func()
}

// entry is one pending-queue element. The ordering key (time, then
// scheduling sequence for FIFO ties) is stored inline so heap sifts never
// chase pointers.
type entry struct {
	at   units.Time
	seq  uint64
	slot int32
}

// before reports whether a fires strictly before b.
func before(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

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

	// near[:nearN] is the near run, at most four imminent events, latest
	// first (the fifth place is admitNear's scratch). hole is 1 while
	// heap[0] has fired and its pop waits for the handler's pushes (fire).
	near                 [5]entry
	nearN, nearMax, hole int
	// Dispatches by source (they sum to Processed) and holes a push filled.
	dispatchNear, dispatchLane, dispatchHeap, rootRefills int64

	// Lane storage (lane.go): one pooled slab of item chunks for every
	// lane, threaded into per-lane FIFOs and a free list through laneNext.
	laneChunks    []laneChunk
	laneNext      []int32
	laneFree      int32 // head of the free list, laneNil when empty
	laneQueued    int   // items waiting behind their lane's head
	maxLaneQueued int
	laneFallbacks int64 // out-of-order lane posts sent through the heap

	// eng is non-nil once EnableShards has attached the parallel-window
	// engine (shard.go). viewShard distinguishes the base scheduler
	// (globalClass) from the per-shard views the engine issues; a view
	// owns no heap of its own, it only routes through eng. Every public
	// method guards the engine path behind one nil test, so the
	// unsharded hot path is unchanged.
	eng       *shardEngine
	viewShard int32

	// Processed counts the events executed so far; useful for
	// benchmarking the kernel itself.
	Processed uint64
}

// NewScheduler returns a scheduler with the clock at the simulation epoch.
func NewScheduler() *Scheduler {
	return &Scheduler{laneFree: laneNil}
}

// Now returns the current simulated time: the base clock, or the owning
// shard's local clock while a parallel window is executing.
func (s *Scheduler) Now() units.Time {
	if s.eng != nil {
		return s.eng.nowFor(s.viewShard)
	}
	return s.now
}

// SetAuditor attaches an invariant checker to the kernel: every fired
// event is checked for clock monotonicity (per-shard plus merge-point
// monotonicity when sharding is on) and slot/heap cross-link
// consistency. A nil auditor (the default) disables the checks.
func (s *Scheduler) SetAuditor(a *audit.Auditor) { s.root().aud = a }

// Pending returns the number of events waiting to fire: heap entries, the
// near run, and the lane items queued behind their lane's head.
func (s *Scheduler) Pending() int {
	r := s.root()
	return len(r.heap) - r.hole + r.nearN + r.laneQueued
}

// MaxPending returns the most events that have waited outside lanes at
// once: heap entries plus the near run (sim.heap_depth_max). Under sharding
// this is an approximation (per-shard peaks plus the base backlog), not
// a globally-consistent snapshot.
func (s *Scheduler) MaxPending() int { return s.root().maxPending }

// Active reports whether e refers to an event that is still pending: not
// yet fired, not cancelled, and not a recycled slot now owned by some
// later event. The zero Event is never active.
func (s *Scheduler) Active(e Event) bool {
	if s.eng != nil {
		return s.eng.active(e)
	}
	if e.id == 0 {
		return false
	}
	sl := &s.slots[e.id-1]
	return sl.gen == e.gen && (sl.pos >= 0 || sl.pos == posNear)
}

// EventTime returns the instant a pending event is scheduled to fire, and
// whether the handle is still active.
func (s *Scheduler) EventTime(e Event) (units.Time, bool) {
	if s.eng != nil {
		return s.eng.eventTime(e)
	}
	if !s.Active(e) {
		return 0, false
	}
	if pos := s.slots[e.id-1].pos; pos >= 0 {
		return s.heap[pos].at, true
	}
	return s.near[s.nearIndex(e.id-1)].at, true
}

// allocSlot takes a slot from the free list, growing the pool on demand.
func (s *Scheduler) allocSlot() int32 {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	if s.eng != nil && len(s.slots) > idxMask-1 {
		panic("sim: sharded scheduler exhausted its 24-bit slot index space")
	}
	s.slots = append(s.slots, slot{})
	return int32(len(s.slots) - 1)
}

// release recycles a slot: the generation bump invalidates every
// outstanding handle, and clearing the references lets fired payloads be
// collected. A shard-local shell forwarded onto this slot dies with it.
func (s *Scheduler) release(id int32) {
	sl := &s.slots[id]
	sl.gen++
	sl.pos = posFree
	sl.actor = nil
	sl.arg = nil
	sl.fn = nil
	sl.defc = false
	sl.kind = kindEvent
	if sl.backRef != 0 {
		s.eng.releaseShell(sl.backRef)
		sl.backRef = 0
	}
	s.free = append(s.free, id)
}

// schedule is the shared path behind At/After/PostAt/PostAfter.
// Scheduling in the past panics: it always indicates a logic error in a
// component, and silently reordering time would corrupt every downstream
// measurement.
func (s *Scheduler) schedule(t units.Time, fn func(), a Actor, op int32, arg any) Event {
	if s.eng != nil {
		return s.eng.scheduleFrom(s.viewShard, t, fn, a, op, arg, s.viewShard)
	}
	return s.scheduleBase(t, fn, a, op, arg, globalClass)
}

// scheduleBase inserts into the base heap with the next global sequence
// number, stamping the slot with its event class. It runs only in
// sequential contexts (unsharded runs, setup code between Run calls, and
// the engine's sequential cohorts) — never inside a parallel window.
func (s *Scheduler) scheduleBase(t units.Time, fn func(), a Actor, op int32, arg any, shard int32) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	id := s.allocSlot()
	sl := &s.slots[id]
	sl.fn = fn
	sl.actor = a
	sl.op = op
	sl.arg = arg
	sl.shard = shard
	e := entry{at: t, seq: s.seq, slot: id}
	s.seq++
	// Filling a hole saves a whole pop; shard windows seed from the heap.
	if s.hole != 0 || s.eng != nil || !s.admitNear(e) {
		s.push(e)
	}
	if shard == globalClass && s.eng != nil {
		s.eng.noteGlobal(t, id, sl.gen)
	}
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
	s.maxPending = max(s.maxPending, len(s.heap)+s.nearN)
}

// admitNear puts e in the near run, and reports true, if e would be first
// or second out of the heap: earlier than each of the root's children. It
// only chooses where e waits; fire merges the run and the heap either way.
func (s *Scheduler) admitNear(e entry) bool {
	for c := 1; c < len(s.heap) && c <= 4; c++ {
		if !before(e, s.heap[c]) {
			return false
		}
	}
	i := s.nearN
	for ; i > 0 && before(s.near[i-1], e); i-- {
		s.near[i] = s.near[i-1]
	}
	s.near[i] = e
	s.slots[e.slot].pos = posNear
	if s.nearN++; s.nearN == len(s.near) {
		// One too many: the latest leaves for the heap, so a far event
		// admitted while the heap was small cannot keep its place.
		out := s.near[0]
		s.nearN = copy(s.near[:], s.near[1:])
		s.push(out)
	}
	s.nearMax = max(s.nearMax, s.nearN)
	s.maxPending = max(s.maxPending, len(s.heap)+s.nearN)
	return true
}

// nearIndex returns where in the near run the event in slot id waits.
func (s *Scheduler) nearIndex(id int32) (i int) {
	for s.near[i].slot != id {
		i++
	}
	return i
}

// settle completes a deferred root pop that no push filled.
func (s *Scheduler) settle() {
	if s.hole != 0 {
		s.hole = 0
		s.popRoot()
	}
}

// At schedules fn to run at the absolute time t.
func (s *Scheduler) At(t units.Time, fn func()) Event {
	return s.schedule(t, fn, nil, 0, nil)
}

// After schedules fn to run d from now.
func (s *Scheduler) After(d units.Duration, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.schedule(s.Now().Add(d), fn, nil, 0, nil)
}

// PostAt schedules a typed event: at time t the kernel calls
// a.OnEvent(op, arg). This is the allocation-free path hot components use
// instead of closures.
func (s *Scheduler) PostAt(t units.Time, a Actor, op int32, arg any) Event {
	return s.schedule(t, nil, a, op, arg)
}

// PostAfter schedules a typed event d from now.
func (s *Scheduler) PostAfter(d units.Duration, a Actor, op int32, arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.schedule(s.Now().Add(d), nil, a, op, arg)
}

// Cancel removes a pending event. Cancelling the zero handle, an event
// that already fired, one already cancelled, or a handle whose slot has
// been recycled by a later event is a no-op, so callers can cancel
// unconditionally.
func (s *Scheduler) Cancel(e Event) {
	if s.eng != nil {
		s.eng.cancel(s.viewShard, e)
		return
	}
	if e.id == 0 {
		return
	}
	s.cancelBase(e.id-1, e.gen)
}

// cancelBase removes a pending arena-0 event by slot index if the handle
// generation still matches. It is the legacy cancel body, shared with the
// engine's barrier (which resolves forwarded handles down to base slots).
func (s *Scheduler) cancelBase(id int32, gen uint32) {
	sl := &s.slots[id]
	if sl.gen != gen || sl.pos < 0 && sl.pos != posNear {
		return
	}
	if sl.pos == posNear {
		i := s.nearIndex(id)
		s.nearN--
		copy(s.near[i:s.nearN], s.near[i+1:])
	} else {
		s.settle() // removeAt wants a whole heap
		s.removeAt(int(sl.pos))
	}
	s.release(id)
}

// Reschedule cancels e (if pending) and schedules fn at t, returning the
// new event. It is the common pattern for retransmission timers.
func (s *Scheduler) Reschedule(e Event, t units.Time, fn func()) Event {
	s.Cancel(e)
	return s.At(t, fn)
}

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
	if p := (i - 1) / 4; i > 0 && before(moved, s.heap[p]) {
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
		if !before(e, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.slots[s.heap[i].slot].pos = int32(i)
		i = p
	}
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// siftDown restores heap order from index i toward the leaves.
func (s *Scheduler) siftDown(i int) {
	e := s.heap[i]
	n := len(s.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if before(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !before(s.heap[m], e) {
			break
		}
		s.heap[i] = s.heap[m]
		s.slots[s.heap[i].slot].pos = int32(i)
		i = m
	}
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// popRoot removes and returns the heap minimum, restoring heap order.
func (s *Scheduler) popRoot() entry {
	top := s.heap[0]
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
	return top
}

// fire dispatches the earliest event if it is due by until. The
// slot is recycled before dispatch, so the handler is free to schedule
// (possibly reusing the very slot that just fired). A lane's head hands
// its heap entry to the item behind it instead (fireLane).
// A plain root stays in place as a hole while its handler runs: the
// handler's first push overwrites it, and only a handler that pushed
// nothing pays the pop (settle).
func (s *Scheduler) fire(until units.Time) bool {
	near := s.nearN > 0 && (len(s.heap) == 0 || before(s.near[s.nearN-1], s.heap[0]))
	src := s.heap
	if near {
		src = s.near[s.nearN-1:]
	}
	if len(src) == 0 || src[0].at > until {
		return false
	}
	top := src[0]
	sl := &s.slots[top.slot]
	if s.aud != nil {
		if top.at < s.now {
			s.aud.Violationf(s.now, "sim", "clock-monotonic",
				"event at %v fires after clock reached %v", top.at, s.now)
		}
		if near != (sl.pos == posNear) || !near && sl.pos != 0 {
			s.aud.Violationf(s.now, "sim", "slot-heap-link",
				"next event (from the near run: %v) references slot %d with pos %d (stale or recycled slot about to fire)", near, top.slot, sl.pos)
		}
	}
	if sl.kind == kindLane {
		s.fireLane(sl.arg.(*Lane), top)
		return true
	}
	if near {
		s.nearN--
		s.dispatchNear++
	} else {
		s.hole = 1
		s.dispatchHeap++
	}
	fn, actor, op, arg := sl.fn, sl.actor, sl.op, sl.arg
	s.release(top.slot)
	s.now = top.at
	s.Processed++
	if actor != nil {
		actor.OnEvent(op, arg)
	} else {
		fn()
	}
	s.settle()
	return true
}

// Instrument registers the kernel's telemetry into reg: events processed,
// by source (sim.dispatch_*, sim.root_refills), current and peak events outside
// lanes (sim.heap_depth*, of them near: sim.near_depth_max), current and peak lane
// items queued behind their lane's head (sim.lane_depth*; heap + lane =
// Pending), out-of-order lane posts, and the simulated clock. Values are
// published by a snapshot-time collector, so instrumentation adds no
// per-event work and cannot perturb scheduling. A nil registry is a no-op.
func (s *Scheduler) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r := s.root()
	events := reg.Counter("sim.events_processed")
	depth := reg.Gauge("sim.heap_depth")
	depthMax := reg.Gauge("sim.heap_depth_max")
	laneDepth := reg.Gauge("sim.lane_depth")
	laneDepthMax := reg.Gauge("sim.lane_depth_max")
	laneFallbacks := reg.Counter("sim.lane_fallbacks")
	clock := reg.Gauge("sim.time_seconds")
	fromNear, fromLane := reg.Counter("sim.dispatch_near"), reg.Counter("sim.dispatch_lane")
	fromHeap, refills := reg.Counter("sim.dispatch_heap"), reg.Counter("sim.root_refills")
	nearMax := reg.Gauge("sim.near_depth_max")
	reg.OnCollect(func() {
		events.Set(int64(r.Processed))
		fromNear.Set(r.dispatchNear)
		fromLane.Set(r.dispatchLane)
		fromHeap.Set(r.dispatchHeap)
		refills.Set(r.rootRefills)
		nearMax.Set(float64(r.nearMax))
		depth.Set(float64(len(r.heap) - r.hole + r.nearN))
		depthMax.Set(float64(r.maxPending))
		laneDepth.Set(float64(r.laneQueued))
		laneDepthMax.Set(float64(r.maxLaneQueued))
		laneFallbacks.Set(r.laneFallbacks)
		clock.Set(r.now.Seconds())
	})
}

// Stop makes Run return after the event currently executing completes.
// Under sharding the granularity is one window: the current window
// finishes and merges before Run returns.
func (s *Scheduler) Stop() {
	if s.eng != nil {
		s.eng.base.stopped = true
		return
	}
	s.stopped = true
}

// Run executes events in order until the clock would pass `until`, no
// events remain, or Stop is called. The clock is left at `until` (or at
// the last event time if the queue drained first and that is earlier).
func (s *Scheduler) Run(until units.Time) {
	s.settle() // a handler that panicked last time left its pop pending
	if s.eng != nil {
		if s.viewShard != globalClass {
			panic("sim: Run called on a shard view")
		}
		s.eng.run(until)
		return
	}
	s.stopped = false
	for !s.stopped && s.fire(until) {
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// Step executes exactly one event if any is pending and returns whether an
// event was executed. Useful in tests. Not available under sharding,
// where execution advances a window at a time.
func (s *Scheduler) Step() bool {
	if s.eng != nil {
		panic("sim: Step is not available on a sharded scheduler")
	}
	s.settle()
	return s.fire(units.Never)
}

// VerifyInvariants exhaustively checks the kernel's internal structure:
// heap order, heap-entry/slot cross-links, free-list consistency, that no
// slot is both pending and free, the near run, that no pop is still
// deferred (call it between events), and the lane invariants (see
// verifyLanes). It is O(pool size) and meant for
// tests and the fuzz harness, not the hot path. It returns the first
// problem found, or nil.
func (s *Scheduler) VerifyInvariants() error {
	if s.hole != 0 {
		return fmt.Errorf("sim: the root's deferred pop outlived its handler")
	}
	for i, e := range s.near[:s.nearN] {
		if i > 0 && !before(e, s.near[i-1]) || e.at < s.now || uint(e.slot) >= uint(len(s.slots)) || s.slots[e.slot].pos != posNear {
			return fmt.Errorf("sim: near run entry %d (at=%v seq=%d slot=%d) is out of order, in the past, or its slot is not marked near", i, e.at, e.seq, e.slot)
		}
	}
	for i := 1; i < len(s.heap); i++ {
		p := (i - 1) / 4
		if before(s.heap[i], s.heap[p]) {
			return fmt.Errorf("sim: heap order violated at index %d: child (at=%v seq=%d) before parent (at=%v seq=%d)",
				i, s.heap[i].at, s.heap[i].seq, s.heap[p].at, s.heap[p].seq)
		}
	}
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
		if got := s.slots[e.slot].pos; got != int32(i) {
			return fmt.Errorf("sim: slot %d at heap index %d records pos %d", e.slot, i, got)
		}
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
		if got := s.slots[id].pos; got != -1 {
			return fmt.Errorf("sim: free slot %d records pos %d", id, got)
		}
	}
	if len(s.heap)+s.nearN+len(s.free) != len(s.slots) {
		return fmt.Errorf("sim: %d in heap + %d near + %d free != %d slots", len(s.heap), s.nearN, len(s.free), len(s.slots))
	}
	if err := s.verifyLanes(); err != nil {
		return err
	}
	if s.eng != nil {
		return s.eng.verify()
	}
	return nil
}
