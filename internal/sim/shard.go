// Sharded execution engine: conservative parallel windows over the
// topology cut, bit-identical to the sequential kernel.
//
// # Model
//
// EnableShards splits one Scheduler into n shards. Every event carries a
// class: shard k (its handler touches only shard k's component state) or
// global (everything else — experiment drivers, samplers, any event
// scheduled through the base scheduler). Components are handed per-shard
// views (ShardView); an event's class is simply the scheduler object it
// was posted through, so unmodified component code classifies itself.
//
// Run proceeds window by window. With T the earliest pending time, the
// window is [T, E) where E = min(T+L, first global-class event time,
// until+1) and L is the lookahead: the smallest cross-shard propagation
// delay in the topology. Every pending event below E is popped from the
// base heap and seeded into its shard's private mini-heap; shards then
// drain their heaps concurrently. Cross-shard and beyond-window schedules
// are deferred, and a cross-shard post below E panics — the lookahead
// contract is that shard state can only be reached across a link whose
// delay is at least L. When E <= T (a global-class event is due, or the
// lookahead is exhausted) the engine falls back to firing the whole
// timestamp cohort on the sequential path, which makes cross-shard
// readers (samplers, flow arrivals) automatically safe: they observe
// exactly the state the sequential kernel would have produced.
//
// # Determinism
//
// The sequential kernel orders events by (time, seq) with seq assigned in
// schedule-call order. The engine reproduces that order exactly:
//
//   - Seeds keep their global seq as the local tie-break key. In-window
//     children draw keys from a counter starting at the window's base-seq
//     snapshot, which exceeds every seed's seq — so at equal times, seeds
//     fire before children, in global order, and same-shard children fire
//     in local scheduling order, exactly as the sequential kernel would.
//   - Each shard logs its window: a begin record per fired event, then
//     one record per schedule/cancel call, in call order. At the barrier
//     the logs are replayed through a virtual heap ordered by (time,
//     seq): popping an event replays its schedule records, assigning
//     fresh global seqs in pop order — the exact seqs the sequential
//     kernel would have assigned. Beyond-window events are forwarded into
//     the base heap under their replayed seq; in-window children are
//     pushed back into the virtual heap and must match their shard's
//     next begin record. That match is the frontier-merge invariant: it
//     proves the shard's local execution order was the global (time,
//     seq) order restricted to the shard.
//
// Timer handles survive the window boundary through arena encoding: a
// schedule inside a window allocates from the shard's local arena, and if
// the event outlives the window the barrier forwards it into the base
// heap, leaving the local slot behind as a shell that redirects Cancel,
// Active and EventTime. Shells die with their base slot (backRef), so
// long-lived rescheduled timers (RTOs) do not accumulate storage.
package sim

import (
	"fmt"
	"sync"

	"bufsim/internal/units"
)

// globalClass marks events owned by no shard: they force a sequential
// cohort at their timestamp.
const globalClass int32 = -1

// MaxShards bounds the shard count; arena indices share the 31-bit handle
// space with the 24-bit slot index.
const MaxShards = 64

// Target names a destination actor together with the shard that owns its
// state, so links can hand packets across a shard boundary (PostToAt
// defers delivery to the destination's shard at the barrier). Build one
// with TargetFor on the scheduler view of the owning shard.
type Target struct {
	A     Actor
	Shard int32
}

// Valid reports whether the target names an actor.
func (t Target) Valid() bool { return t.A != nil }

// EnableShards attaches the parallel-window engine: n shards with the
// given conservative lookahead (the minimum cross-shard link delay;
// must be positive — a topology with a zero-delay cross-shard edge
// cannot shard). Call once, on a base scheduler, before Run. Pass
// units.Duration(units.Never) for fully disjoint shards with no
// cross-shard edges.
func (s *Scheduler) EnableShards(n int, lookahead units.Duration) {
	if s.eng != nil {
		if s.viewShard != globalClass {
			panic("sim: EnableShards called on a shard view")
		}
		panic("sim: EnableShards called twice")
	}
	if n < 2 || n > MaxShards {
		panic(fmt.Sprintf("sim: shard count %d outside [2, %d]", n, MaxShards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v", lookahead))
	}
	e := &shardEngine{base: s, lookahead: lookahead}
	e.shards = make([]*shardRun, n)
	e.views = make([]*Scheduler, n)
	for k := range e.shards {
		e.shards[k] = &shardRun{id: int32(k), eng: e}
		e.views[k] = &Scheduler{eng: e, viewShard: int32(k), laneFree: laneNil}
	}
	s.viewShard = globalClass
	s.eng = e
	// Lanes post through the engine from here on; whatever they already
	// hold re-enters the heap under its reserved key.
	s.spillLanes()
	// So does the near run: windows are seeded from the heap alone.
	for s.nearN > 0 {
		s.nearN--
		s.push(s.near[s.nearN])
	}
	// Events scheduled before sharding was enabled carry the global
	// class; register them for window sizing.
	for _, en := range s.heap {
		e.noteGlobal(en.at, en.slot, s.slots[en.slot].gen)
	}
}

// ShardView returns the scheduler view owned by shard k. Components of
// shard k must schedule exclusively through their view; events posted
// through it are classified as shard-k work and may run concurrently
// with other shards. On an unsharded scheduler every view is the
// scheduler itself, so topology code can use views unconditionally.
func (s *Scheduler) ShardView(k int) *Scheduler {
	if s.eng == nil {
		return s
	}
	return s.eng.views[k]
}

// ShardCount reports the number of shards (1 when sharding is off).
func (s *Scheduler) ShardCount() int {
	if s.eng == nil {
		return 1
	}
	return len(s.eng.shards)
}

// TargetFor binds an actor to the calling view's shard, producing the
// hand-off address cross-shard senders post to.
func (s *Scheduler) TargetFor(a Actor) Target {
	if s.eng == nil {
		return Target{A: a, Shard: globalClass}
	}
	return Target{A: a, Shard: s.viewShard}
}

// PostToAt schedules a typed event on the target's shard: at time t the
// kernel calls tg.A.OnEvent(op, arg) in the context of tg.Shard. From a
// different shard, t must respect the lookahead (t >= window end).
func (s *Scheduler) PostToAt(t units.Time, tg Target, op int32, arg any) Event {
	if s.eng != nil {
		return s.eng.scheduleFrom(s.viewShard, t, tg.A, op, arg, tg.Shard)
	}
	return s.scheduleBase(t, tg.A, op, arg, globalClass)
}

// PostToAfter schedules a typed event on the target's shard d from now.
func (s *Scheduler) PostToAfter(d units.Duration, tg Target, op int32, arg any) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.PostToAt(s.Now().Add(d), tg, op, arg)
}

// root resolves a view to its base scheduler.
func (s *Scheduler) root() *Scheduler {
	if s.eng != nil {
		return s.eng.base
	}
	return s
}

// shardEngine coordinates the parallel windows. It is reachable from the
// base scheduler and every view; all mutable state below is owned by the
// sequential portions of Run except the per-shard runs, which their
// goroutines own exclusively between window start and the barrier.
type shardEngine struct {
	base      *Scheduler
	views     []*Scheduler
	shards    []*shardRun
	lookahead units.Duration

	window    bool       // a parallel window is executing
	windowEnd units.Time // exclusive bound E of the executing window

	gheap  []gentry // lazily-pruned min-heap over pending global-class events
	virt   []ventry // barrier scratch: the virtual replay heap
	seeded []int32  // barrier scratch: shards seeded this window
}

// gentry tracks one pending global-class event for window sizing.
// Entries are pruned lazily: a generation mismatch means the event fired
// or was cancelled.
type gentry struct {
	at   units.Time
	slot int32
	gen  uint32
}

// ventry is one virtual-replay heap element, ordered by (at, seq) — the
// global order the sequential kernel would have used.
type ventry struct {
	at    units.Time
	seq   uint64
	shard int32
	ref   int32 // encoded handle: arena 0 for seeds, shard arena for children
}

func (a ventry) before(b ventry) int { return precedes(a.at, a.seq, b.at, b.seq) }

// Local-arena slot states.
const (
	lsFree      int8 = iota
	lsPending        // in the owning shard's window heap
	lsDeferred       // beyond the window (or cross-shard); forwarded at the barrier
	lsFired          // fired this window; storage recycles at the barrier
	lsCancelled      // cancelled this window before settling
	lsForwarded      // shell: the live event moved to a base slot (fwd)
)

// lslot is one shard-local event slot.
type lslot struct {
	gen    uint32
	state  int8
	pos    int32 // window-heap index while lsPending
	op     int32
	target int32 // destination shard recorded at schedule time
	at     units.Time
	actor  Actor
	arg    any
	fwd    Event // base-arena handle once lsForwarded
}

// lentry is one window-heap element. Seeds carry their global seq as the
// key; children draw keys from the shard's counter, which starts above
// every seed's seq.
type lentry struct {
	at  units.Time
	key uint64
	ref int32 // encoded handle
}

func (a lentry) before(b lentry) int { return precedes(a.at, a.key, b.at, b.key) }

// Window log record kinds.
const (
	recBeginSeed  int8 = iota // a seed fired; a = its global seq
	recBeginChild             // an in-window child fired; a = local slot index
	recSched                  // a schedule call; a = local slot index
	recCancel                 // an applied cancel; a = encoded handle id
)

type logRec struct {
	kind int8
	at   units.Time
	a    int64
	gen  uint32 // recCancel: the cancelled handle's generation
}

// shardRun is one shard's execution state. Between windows it is owned by
// the engine's sequential code; during a window, exclusively by the
// shard's goroutine.
type shardRun struct {
	id     int32
	eng    *shardEngine
	now    units.Time
	heap   []lentry
	slots  []lslot
	free   []int32
	key    uint64 // child tie-break counter; reset to the base-seq snapshot per window
	log    []logRec
	dead   []int32 // local slots fired this window, recycled at the barrier
	cursor int     // barrier scratch: replay position in log

	processed  uint64
	maxPending int
	panicked   any
}

// ---- scheduling ----

// nowFor is the routed clock: a shard's local clock inside a window, the
// base clock everywhere else.
func (e *shardEngine) nowFor(k int32) units.Time {
	if e.window && k != globalClass {
		return e.shards[k].now
	}
	return e.base.now
}

// scheduleFrom routes a schedule call: inside a window it lands in the
// calling shard's arena; outside, on the base heap stamped with the
// target class.
func (e *shardEngine) scheduleFrom(from int32, t units.Time, a Actor, op int32, arg any, target int32) Event {
	if e.window {
		if from == globalClass {
			panic("sim: base-scheduler event scheduled inside a parallel window")
		}
		return e.scheduleLocal(from, t, a, op, arg, target)
	}
	return e.base.scheduleBase(t, a, op, arg, target)
}

// scheduleLocal allocates from shard k's arena. Same-shard events below
// the window bound enter the window heap; everything else is deferred to
// the barrier. A cross-shard post below the window bound is a lookahead
// violation and panics: the topology promised no shard can be reached
// faster than the lookahead.
func (e *shardEngine) scheduleLocal(k int32, t units.Time, a Actor, op int32, arg any, target int32) Event {
	sh := e.shards[k]
	if t < sh.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before shard %d clock %v", t, k, sh.now))
	}
	if target != k && t < e.windowEnd {
		if b := e.base; b.aud != nil {
			b.aud.Violationf(sh.now, "sim", "lookahead",
				"shard %d posted to shard %d at %v inside window ending %v", k, target, t, e.windowEnd)
		}
		panic(fmt.Sprintf("sim: lookahead violation: shard %d posted to shard %d at %v inside window ending %v",
			k, target, t, e.windowEnd))
	}
	idx := sh.alloc()
	ls := &sh.slots[idx]
	ls.actor = a
	ls.op = op
	ls.arg = arg
	ls.at = t
	ls.target = target
	ref := handleFor(k+1, idx)
	if t < e.windowEnd {
		ls.state = lsPending
		sh.push(lentry{at: t, key: sh.key, ref: ref})
		sh.key++
	} else {
		ls.state = lsDeferred
		ls.pos = -1
	}
	sh.log = append(sh.log, logRec{kind: recSched, at: t, a: int64(idx)})
	return Event{id: ref, gen: ls.gen}
}

// ---- cancellation / handle resolution ----

// cancel routes Cancel through the engine. In-window cancels log their
// effect so the barrier replay applies it under the global order;
// sequential-context cancels resolve shells down to base slots directly.
func (e *shardEngine) cancel(from int32, ev Event) {
	if ev.id == 0 {
		return
	}
	if e.window && from != globalClass {
		e.cancelInWindow(from, ev)
		return
	}
	ar, idx := handleArena(ev.id), handleIdx(ev.id)
	if ar == 0 {
		e.base.cancelBase(idx, ev.gen)
		return
	}
	sh := e.shards[ar-1]
	ls := &sh.slots[idx]
	if ls.gen != ev.gen || ls.state != lsForwarded {
		return
	}
	e.base.cancelBase(handleIdx(ls.fwd.id), ls.fwd.gen)
	if ls.state == lsForwarded { // base event already gone; drop the stale shell
		sh.releaseLocal(idx)
	}
}

// cancelInWindow applies a cancel from shard k's execution context.
// Pending same-shard work is removed immediately; events living in the
// base heap are marked (defc) and surgically removed at the barrier,
// where mutating the shared heap is safe.
func (e *shardEngine) cancelInWindow(k int32, ev Event) {
	sh := e.shards[k]
	b := e.base
	ar, idx := handleArena(ev.id), handleIdx(ev.id)
	if ar == 0 {
		e.cancelSeedOrBase(sh, &b.slots[idx], ev.id, ev.gen)
		return
	}
	if ar != k+1 {
		panic("sim: cross-shard cancel of a shard-local event")
	}
	ls := &sh.slots[idx]
	if ls.gen != ev.gen {
		return
	}
	switch ls.state {
	case lsPending:
		sh.removeLocalAt(int(ls.pos))
		ls.pos = -1
		ls.gen++
		ls.state = lsCancelled
		sh.log = append(sh.log, logRec{kind: recCancel, a: int64(ev.id), gen: ev.gen})
	case lsDeferred:
		ls.gen++
		ls.state = lsCancelled
		sh.log = append(sh.log, logRec{kind: recCancel, a: int64(ev.id), gen: ev.gen})
	case lsForwarded:
		bsl := &b.slots[handleIdx(ls.fwd.id)]
		if bsl.gen != ls.fwd.gen {
			return
		}
		e.cancelSeedOrBase(sh, bsl, ev.id, ev.gen)
	}
}

// cancelSeedOrBase cancels a base-arena event from shard context: a seed
// pending in this shard's window heap comes out now; a future base-heap
// event is deferred to the barrier. id/gen identify the handle the
// component holds (possibly a shell), recorded for the replay log.
func (e *shardEngine) cancelSeedOrBase(sh *shardRun, sl *slot, id int32, gen uint32) {
	if handleArena(id) == 0 && sl.gen != gen {
		return
	}
	if sl.defc {
		return
	}
	switch {
	case sl.pos <= posSeedBase: // pending in a window heap
		if sl.shard != sh.id {
			panic("sim: cross-shard cancel of an in-window event")
		}
		sh.removeLocalAt(int(posSeedBase - sl.pos))
		sl.pos = posSeedCancelled
		sl.gen++
		sh.log = append(sh.log, logRec{kind: recCancel, a: int64(id), gen: gen})
	case sl.pos >= 0: // future event in the base heap
		if sl.shard != sh.id {
			panic("sim: cross-shard cancel of a base event")
		}
		sl.defc = true
		sh.log = append(sh.log, logRec{kind: recCancel, a: int64(id), gen: gen})
	}
}

// active resolves a handle through arenas, shells and window sentinels.
func (e *shardEngine) active(ev Event) bool {
	if ev.id == 0 {
		return false
	}
	ar, idx := handleArena(ev.id), handleIdx(ev.id)
	if ar == 0 {
		return e.baseActive(idx, ev.gen)
	}
	ls := &e.shards[ar-1].slots[idx]
	if ls.gen != ev.gen {
		return false
	}
	switch ls.state {
	case lsPending, lsDeferred:
		return true
	case lsForwarded:
		return e.baseActive(handleIdx(ls.fwd.id), ls.fwd.gen)
	}
	return false
}

func (e *shardEngine) baseActive(idx int32, gen uint32) bool {
	sl := &e.base.slots[idx]
	if sl.gen != gen || sl.defc {
		return false
	}
	return sl.pos >= 0 || sl.pos <= posSeedBase
}

// eventTime resolves a handle to its pending fire time.
func (e *shardEngine) eventTime(ev Event) (units.Time, bool) {
	if ev.id == 0 {
		return 0, false
	}
	ar, idx := handleArena(ev.id), handleIdx(ev.id)
	if ar == 0 {
		return e.baseEventTime(idx, ev.gen)
	}
	sh := e.shards[ar-1]
	ls := &sh.slots[idx]
	if ls.gen != ev.gen {
		return 0, false
	}
	switch ls.state {
	case lsPending:
		return sh.heap[ls.pos].at, true
	case lsDeferred:
		return ls.at, true
	case lsForwarded:
		return e.baseEventTime(handleIdx(ls.fwd.id), ls.fwd.gen)
	}
	return 0, false
}

func (e *shardEngine) baseEventTime(idx int32, gen uint32) (units.Time, bool) {
	sl := &e.base.slots[idx]
	if sl.gen != gen || sl.defc {
		return 0, false
	}
	switch {
	case sl.pos >= 0:
		return e.base.heap[sl.pos].at, true
	case sl.pos <= posSeedBase:
		return e.shards[sl.shard].heap[posSeedBase-sl.pos].at, true
	}
	return 0, false
}

// releaseShell recycles a forwarded local slot when its base slot dies.
func (e *shardEngine) releaseShell(ref int32) {
	e.shards[handleArena(ref)-1].releaseLocal(handleIdx(ref))
}

// ---- the window loop ----

// noteGlobal records a pending global-class event for window sizing.
func (e *shardEngine) noteGlobal(t units.Time, slot int32, gen uint32) {
	e.gheap = append(e.gheap, gentry{at: t, slot: slot, gen: gen})
	i := len(e.gheap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.gheap[p].at <= e.gheap[i].at {
			break
		}
		e.gheap[p], e.gheap[i] = e.gheap[i], e.gheap[p]
		i = p
	}
}

// nextGlobalAt returns the earliest pending global-class event time,
// pruning entries whose events fired or were cancelled since.
func (e *shardEngine) nextGlobalAt() units.Time {
	b := e.base
	for len(e.gheap) > 0 {
		g := e.gheap[0]
		sl := &b.slots[g.slot]
		if sl.gen == g.gen && sl.pos >= 0 && sl.shard == globalClass {
			return g.at
		}
		n := len(e.gheap) - 1
		e.gheap[0] = e.gheap[n]
		e.gheap = e.gheap[:n]
		// sift down
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && e.gheap[c+1].at < e.gheap[c].at {
				c++
			}
			if e.gheap[i].at <= e.gheap[c].at {
				break
			}
			e.gheap[i], e.gheap[c] = e.gheap[c], e.gheap[i]
			i = c
		}
	}
	return units.Never
}

// satAdd is t+d saturating at units.Never.
func satAdd(t units.Time, d units.Duration) units.Time {
	if units.Time(units.Never).Sub(t) <= d {
		return units.Never
	}
	return t.Add(d)
}

// run is the sharded Run loop: sequential cohorts when a global-class
// event is due at the frontier, parallel windows otherwise.
func (e *shardEngine) run(until units.Time) {
	b := e.base
	b.stopped = false
	for len(b.heap) > 0 && !b.stopped {
		T := b.heap[0].at
		if T > until {
			break
		}
		E := satAdd(T, e.lookahead)
		if tg := e.nextGlobalAt(); tg < E {
			E = tg
		}
		// The window must cover `until` itself, hence the one-nanosecond
		// overshoot on the exclusive bound.
		const tick = units.Duration(1)
		if until < units.Never && until.Add(tick) < E {
			E = until.Add(tick)
		}
		if E <= T {
			// A global-class event is due at T: fire the whole timestamp
			// cohort sequentially, in global (time, seq) order.
			for !b.stopped && b.fire(T) {
			}
			continue
		}
		e.runWindow(T, E)
	}
	if !b.stopped && b.now < until {
		b.now = until
	}
}

// runWindow executes the parallel window [T, E): distribute seeds, drain
// shards concurrently, then merge at the barrier.
func (e *shardEngine) runWindow(T, E units.Time) {
	b := e.base
	if b.aud != nil && T < b.now {
		b.aud.Violationf(b.now, "sim", "merge-monotonic",
			"window starting at %v opened after clock reached %v", T, b.now)
	}
	e.seeded = e.seeded[:0]
	e.virt = e.virt[:0]
	for len(b.heap) > 0 && b.heap[0].at < E {
		top := b.popRoot()
		sl := &b.slots[top.slot]
		k := sl.shard
		if k == globalClass {
			panic("sim: global-class event inside a parallel window")
		}
		sh := e.shards[k]
		if len(sh.heap) == 0 {
			e.seeded = append(e.seeded, k)
		}
		sh.push(lentry{at: top.at, key: top.seq, ref: handleFor(0, top.slot)})
		e.virt = append(e.virt, ventry{at: top.at, seq: top.seq, shard: k, ref: handleFor(0, top.slot)})
	}
	snap := b.seq
	for _, k := range e.seeded {
		sh := e.shards[k]
		sh.key = snap
		sh.now = b.now
	}
	e.window = true
	e.windowEnd = E
	if len(e.seeded) == 1 {
		e.shards[e.seeded[0]].drain()
	} else {
		var wg sync.WaitGroup
		for _, k := range e.seeded {
			sh := e.shards[k]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sh.drain()
			}()
		}
		wg.Wait()
	}
	e.window = false
	for _, k := range e.seeded {
		if p := e.shards[k].panicked; p != nil {
			e.shards[k].panicked = nil
			panic(p)
		}
	}
	e.replay(E)
	maxAt := b.now
	for _, k := range e.seeded {
		sh := e.shards[k]
		if sh.cursor != len(sh.log) {
			panic(fmt.Sprintf("sim: frontier merge left %d unmatched log records on shard %d",
				len(sh.log)-sh.cursor, k))
		}
		sh.log = sh.log[:0]
		sh.cursor = 0
		for _, idx := range sh.dead {
			if sh.slots[idx].state == lsFired {
				sh.releaseLocal(idx)
			}
		}
		sh.dead = sh.dead[:0]
		if sh.now > maxAt {
			maxAt = sh.now
		}
		b.Processed += sh.processed
		sh.processed = 0
		// MaxPending under sharding is an approximation: per-shard peaks
		// summed with the base backlog, not a globally-consistent snapshot.
		if mp := len(b.heap) + sh.maxPending; mp > b.maxPending {
			b.maxPending = mp
		}
		sh.maxPending = 0
	}
	b.now = maxAt
}

// drain runs one shard's window to exhaustion, capturing panics for the
// coordinator to re-raise after the barrier.
func (sh *shardRun) drain() {
	defer func() {
		if p := recover(); p != nil {
			sh.panicked = p
		}
	}()
	for len(sh.heap) > 0 {
		sh.fireLocal()
	}
}

// fireLocal pops and dispatches the shard's earliest window event.
func (sh *shardRun) fireLocal() {
	top := sh.heap[0]
	last := len(sh.heap) - 1
	if last > 0 {
		moved := sh.heap[last]
		sh.heap = sh.heap[:last]
		sh.heap[0] = moved
		sh.setPos(moved.ref, 0)
		sh.siftDown(0)
	} else {
		sh.heap = sh.heap[:0]
	}
	b := sh.eng.base
	if b.aud != nil && top.at < sh.now {
		b.aud.Violationf(sh.now, "sim", "shard-clock-monotonic",
			"shard %d event at %v fires after shard clock reached %v", sh.id, top.at, sh.now)
	}
	sh.now = top.at
	var actor Actor
	var op int32
	var arg any
	idx := handleIdx(top.ref)
	if handleArena(top.ref) == 0 {
		sl := &b.slots[idx]
		actor, op, arg = sl.actor, sl.op, sl.arg
		sl.gen++
		sl.pos = posSeedFired
		sh.log = append(sh.log, logRec{kind: recBeginSeed, at: top.at, a: int64(top.key)})
	} else {
		ls := &sh.slots[idx]
		actor, op, arg = ls.actor, ls.op, ls.arg
		ls.gen++
		ls.state = lsFired
		ls.pos = -1
		sh.dead = append(sh.dead, idx)
		sh.log = append(sh.log, logRec{kind: recBeginChild, at: top.at, a: int64(idx)})
	}
	sh.processed++
	actor.OnEvent(op, arg)
}

// ---- the barrier ----

// replay merges the window deterministically: a virtual heap ordered by
// (time, seq) walks the shards' logs, assigning the exact global
// sequence numbers the sequential kernel would have produced and
// checking that each shard fired in that order (the frontier-merge
// invariant).
func (e *shardEngine) replay(E units.Time) {
	b := e.base
	// e.virt was filled in ascending pop order, so it is already a heap.
	lastAt := b.now
	for len(e.virt) > 0 {
		v := e.popVirt()
		sh := e.shards[v.shard]
		if handleArena(v.ref) == 0 {
			if b.slots[handleIdx(v.ref)].pos != posSeedFired {
				continue // seed cancelled mid-window: no begin record to match
			}
		} else if sh.slots[handleIdx(v.ref)].state != lsFired {
			panic("sim: virtual replay reached a child that never fired")
		}
		if b.aud != nil && v.at < lastAt {
			b.aud.Violationf(v.at, "sim", "merge-monotonic",
				"frontier merge popped %v after reaching %v", v.at, lastAt)
		}
		lastAt = v.at
		e.matchBegin(sh, v)
		if handleArena(v.ref) == 0 {
			b.release(handleIdx(v.ref))
		}
		for sh.cursor < len(sh.log) {
			r := sh.log[sh.cursor]
			if r.kind == recBeginSeed || r.kind == recBeginChild {
				break
			}
			sh.cursor++
			switch r.kind {
			case recSched:
				e.replaySched(sh, r, E)
			case recCancel:
				e.replayCancel(r)
			}
		}
	}
}

// matchBegin checks the frontier-merge invariant: the event the global
// (time, seq) order says fires next on this shard must be exactly the
// event the shard's log says it fired next.
func (e *shardEngine) matchBegin(sh *shardRun, v ventry) {
	mismatch := func(detail string) {
		if b := e.base; b.aud != nil {
			b.aud.Violationf(v.at, "sim", "frontier-merge", "%s", detail)
		}
		panic("sim: frontier-merge invariant violated: " + detail)
	}
	if sh.cursor >= len(sh.log) {
		mismatch(fmt.Sprintf("shard %d log exhausted but global order expects an event at %v", sh.id, v.at))
	}
	r := sh.log[sh.cursor]
	sh.cursor++
	switch {
	case r.kind == recBeginSeed && handleArena(v.ref) == 0:
		if r.at != v.at || r.a != int64(v.seq) {
			mismatch(fmt.Sprintf("shard %d fired seed seq %d at %v, global order expects seq %d at %v",
				sh.id, r.a, r.at, v.seq, v.at))
		}
	case r.kind == recBeginChild && handleArena(v.ref) != 0:
		if r.at != v.at || r.a != int64(handleIdx(v.ref)) {
			mismatch(fmt.Sprintf("shard %d fired child slot %d at %v, global order expects slot %d at %v",
				sh.id, r.a, r.at, handleIdx(v.ref), v.at))
		}
	default:
		mismatch(fmt.Sprintf("shard %d log record kind %d does not match replayed event at %v", sh.id, r.kind, v.at))
	}
}

// replaySched assigns the event its true global seq. In-window children
// re-enter the virtual heap under that seq; survivors beyond the window
// are forwarded into the base heap; cancelled events consume their seq
// (exactly as the sequential kernel would have) and release storage.
func (e *shardEngine) replaySched(sh *shardRun, r logRec, E units.Time) {
	b := e.base
	idx := int32(r.a)
	ls := &sh.slots[idx]
	seqn := b.seq
	b.seq++
	switch ls.state {
	case lsFired:
		e.pushVirt(ventry{at: r.at, seq: seqn, shard: sh.id, ref: handleFor(sh.id+1, idx)})
	case lsCancelled:
		sh.releaseLocal(idx)
	case lsDeferred:
		e.forward(sh, idx, seqn)
	default:
		panic("sim: schedule record references a slot in an unexpected state")
	}
}

// forward re-homes a deferred local event into the base heap under its
// replayed seq, leaving the local slot as a redirecting shell.
func (e *shardEngine) forward(sh *shardRun, idx int32, seqn uint64) {
	b := e.base
	ls := &sh.slots[idx]
	bidx := b.allocSlot()
	bsl := &b.slots[bidx]
	bsl.actor = ls.actor
	bsl.op = ls.op
	bsl.arg = ls.arg
	bsl.shard = ls.target
	bsl.backRef = handleFor(sh.id+1, idx)
	b.push(entry{at: ls.at, seq: seqn, slot: bidx})
	ls.state = lsForwarded
	ls.fwd = Event{id: bidx + 1, gen: bsl.gen}
	ls.actor = nil
	ls.arg = nil
	if ls.target == globalClass {
		e.noteGlobal(ls.at, bidx, bsl.gen)
	}
}

// replayCancel applies a logged cancel under the global order.
func (e *shardEngine) replayCancel(r logRec) {
	b := e.base
	id := int32(r.a)
	ar, idx := handleArena(id), handleIdx(id)
	if ar == 0 {
		sl := &b.slots[idx]
		if sl.pos == posSeedCancelled {
			b.release(idx)
		} else if sl.gen == r.gen && sl.pos >= 0 {
			sl.defc = false
			b.removeAt(int(sl.pos))
			b.release(idx)
		}
		return
	}
	sh := e.shards[ar-1]
	ls := &sh.slots[idx]
	if ls.state != lsForwarded {
		return // settled at its own schedule record
	}
	bidx := handleIdx(ls.fwd.id)
	bsl := &b.slots[bidx]
	if bsl.pos == posSeedCancelled && bsl.backRef == id {
		b.release(bidx) // reaps the shell through backRef
		return
	}
	bsl.defc = false
	b.cancelBase(bidx, ls.fwd.gen)
	if ls.state == lsForwarded { // base event already gone; drop the stale shell
		sh.releaseLocal(idx)
	}
}

// pushVirt / popVirt maintain the (time, seq) virtual replay heap.
func (e *shardEngine) pushVirt(v ventry) {
	e.virt = append(e.virt, v)
	i := len(e.virt) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.virt[i].before(e.virt[p]) == 0 {
			break
		}
		e.virt[p], e.virt[i] = e.virt[i], e.virt[p]
		i = p
	}
}

func (e *shardEngine) popVirt() ventry {
	top := e.virt[0]
	n := len(e.virt) - 1
	e.virt[0] = e.virt[n]
	e.virt = e.virt[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += e.virt[c+1].before(e.virt[c])
		}
		if e.virt[c].before(e.virt[i]) == 0 {
			break
		}
		e.virt[i], e.virt[c] = e.virt[c], e.virt[i]
		i = c
	}
	return top
}

// ---- shard-local storage and heap ----

// alloc takes a local slot. Slots freed mid-window only re-enter the
// free list at the barrier, so a slot index identifies at most one
// schedule record per window log.
func (sh *shardRun) alloc() int32 {
	if n := len(sh.free); n > 0 {
		idx := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return idx
	}
	if len(sh.slots) > idxMask-1 {
		panic("sim: shard arena exhausted its 24-bit slot index space")
	}
	sh.slots = append(sh.slots, lslot{})
	return int32(len(sh.slots) - 1)
}

// releaseLocal recycles a local slot. Only called from sequential
// contexts (the barrier, or cancels between windows).
func (sh *shardRun) releaseLocal(idx int32) {
	ls := &sh.slots[idx]
	ls.gen++
	ls.state = lsFree
	ls.pos = -1
	ls.actor = nil
	ls.arg = nil
	ls.fwd = Event{}
	sh.free = append(sh.free, idx)
}

// setPos records a window-heap position on the element's slot: local
// slots store it directly, seeds encode it into their base slot's pos
// sentinel so in-window cancels can find them.
func (sh *shardRun) setPos(ref, pos int32) {
	if handleArena(ref) == 0 {
		sh.eng.base.slots[handleIdx(ref)].pos = posSeedBase - pos
	} else {
		sh.slots[handleIdx(ref)].pos = pos
	}
}

func (sh *shardRun) push(le lentry) {
	i := len(sh.heap)
	sh.heap = append(sh.heap, le)
	sh.siftUp(i)
	if len(sh.heap) > sh.maxPending {
		sh.maxPending = len(sh.heap)
	}
}

func (sh *shardRun) removeLocalAt(i int) {
	last := len(sh.heap) - 1
	if i == last {
		sh.heap = sh.heap[:last]
		return
	}
	moved := sh.heap[last]
	sh.heap = sh.heap[:last]
	sh.heap[i] = moved
	sh.setPos(moved.ref, int32(i))
	if p := (i - 1) / 4; i > 0 && moved.before(sh.heap[p]) != 0 {
		sh.siftUp(i)
	} else {
		sh.siftDown(i)
	}
}

func (sh *shardRun) siftUp(i int) {
	e := sh.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if e.before(sh.heap[p]) == 0 {
			break
		}
		sh.heap[i] = sh.heap[p]
		sh.setPos(sh.heap[i].ref, int32(i))
		i = p
	}
	sh.heap[i] = e
	sh.setPos(e.ref, int32(i))
}

func (sh *shardRun) siftDown(i int) {
	e := sh.heap[i]
	n := len(sh.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n { // the tournament of Scheduler.siftDown
			h := sh.heap[c : c+4 : c+4]
			m01 := h[1].before(h[0])
			m23 := 2 + h[3].before(h[2])
			m += m01 + h[m23&3].before(h[m01&3])*(m23-m01)
		} else {
			for j := c + 1; j < n; j++ {
				if sh.heap[j].before(sh.heap[m]) != 0 {
					m = j
				}
			}
		}
		if sh.heap[m].before(e) == 0 {
			break
		}
		sh.heap[i] = sh.heap[m]
		sh.setPos(sh.heap[i].ref, int32(i))
		i = m
	}
	sh.heap[i] = e
	sh.setPos(e.ref, int32(i))
}

// ---- invariants ----

// verify checks the engine's between-window structure: empty window
// heaps and logs, and every live local slot a well-linked shell.
func (e *shardEngine) verify() error {
	if e.window {
		return fmt.Errorf("sim: verify called during an active window")
	}
	b := e.base
	for _, sh := range e.shards {
		if len(sh.heap) != 0 {
			return fmt.Errorf("sim: shard %d window heap not drained (%d entries)", sh.id, len(sh.heap))
		}
		if len(sh.log) != 0 || sh.cursor != 0 {
			return fmt.Errorf("sim: shard %d log not consumed (%d records, cursor %d)", sh.id, len(sh.log), sh.cursor)
		}
		if len(sh.dead) != 0 {
			return fmt.Errorf("sim: shard %d has %d unreaped dead slots", sh.id, len(sh.dead))
		}
		inFree := make(map[int32]bool, len(sh.free))
		for _, idx := range sh.free {
			if idx < 0 || int(idx) >= len(sh.slots) {
				return fmt.Errorf("sim: shard %d free list references slot %d outside pool of %d", sh.id, idx, len(sh.slots))
			}
			if inFree[idx] {
				return fmt.Errorf("sim: shard %d slot %d appears in free list twice", sh.id, idx)
			}
			inFree[idx] = true
			if st := sh.slots[idx].state; st != lsFree {
				return fmt.Errorf("sim: shard %d free slot %d has state %d", sh.id, idx, st)
			}
		}
		live := 0
		for idx := range sh.slots {
			ls := &sh.slots[idx]
			switch ls.state {
			case lsFree:
				if !inFree[int32(idx)] {
					return fmt.Errorf("sim: shard %d slot %d free but not on the free list", sh.id, idx)
				}
			case lsForwarded:
				live++
				bidx := handleIdx(ls.fwd.id)
				if bidx < 0 || int(bidx) >= len(b.slots) {
					return fmt.Errorf("sim: shard %d shell %d forwards outside the base pool", sh.id, idx)
				}
				bsl := &b.slots[bidx]
				if bsl.gen == ls.fwd.gen && bsl.backRef != handleFor(sh.id+1, int32(idx)) {
					return fmt.Errorf("sim: shard %d shell %d and base slot %d disagree on the back-reference", sh.id, idx, bidx)
				}
			default:
				return fmt.Errorf("sim: shard %d slot %d in transient state %d between windows", sh.id, idx, ls.state)
			}
		}
		if live+len(sh.free) != len(sh.slots) {
			return fmt.Errorf("sim: shard %d %d live + %d free != %d slots", sh.id, live, len(sh.free), len(sh.slots))
		}
	}
	return nil
}
