package sim

import (
	"fmt"

	"bufsim/internal/units"
)

// laneNil terminates a lane's FIFO and the slab's free list.
const laneNil int32 = -1

// laneItem is one event posted through a Lane: its reserved (at, seq) key,
// its payload, and the link to the item behind it (or to the next free
// item while on the free list). Items of every lane share one slab,
// Scheduler.laneItems, so memory follows the events in flight rather than
// each lane's own high-water mark.
type laneItem struct {
	at   units.Time
	seq  uint64
	arg  any
	next int32
}

// Lane is a FIFO of typed events for one (actor, op) whose fire times are
// already in order — packets propagating down a wire: fixed delay, send
// times that only increase. A post reserves its (time, seq) key at once,
// exactly the key Scheduler.PostAfter would have assigned, but only the
// lane's head occupies a heap entry; when the head fires, the kernel
// rewrites the heap root with the next item's reserved key. Dispatch
// order is the (time, seq) order either way, so a lane changes how deep
// the heap is and nothing else.
//
// Lane events carry no handle and cannot be cancelled. A Lane must not be
// copied after first use.
type Lane struct {
	s     *Scheduler
	actor Actor
	op    int32
	head  int32 // the item whose key is in the heap, laneNil when empty
	tail  int32
}

// NewLane returns an empty lane delivering to a.OnEvent(op, arg). On a
// sharded scheduler (or a shard view) the lane is a thin wrapper around
// PostAfter: the parallel-window engine keeps its own per-shard heaps.
func (s *Scheduler) NewLane(a Actor, op int32) *Lane {
	return &Lane{s: s, actor: a, op: op, head: laneNil, tail: laneNil}
}

// PostAfter schedules a.OnEvent(op, arg) d from now. A time earlier than
// the lane's tail (possible only when d shrinks between calls) cannot
// queue behind it; that event goes through the heap instead — still
// exactly ordered — and is counted in sim.lane_fallbacks.
func (l *Lane) PostAfter(d units.Duration, arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s := l.s
	if s.eng != nil {
		s.PostAfter(d, l.actor, l.op, arg)
		return
	}
	t := s.now.Add(d)
	if l.tail != laneNil && t < s.laneItems[l.tail].at {
		s.laneFallbacks++
		s.scheduleBase(t, nil, l.actor, l.op, arg, globalClass)
		return
	}
	seq := s.seq
	s.seq++
	id := s.allocLaneItem()
	s.laneItems[id] = laneItem{at: t, seq: seq, arg: arg, next: laneNil}
	if l.tail != laneNil {
		s.laneItems[l.tail].next = id
		l.tail = id
		s.laneQueued++
		if s.laneQueued > s.maxLaneQueued {
			s.maxLaneQueued = s.laneQueued
		}
		return
	}
	l.head, l.tail = id, id
	slot := s.allocSlot()
	sl := &s.slots[slot]
	sl.kind = kindLane
	sl.arg = l
	sl.shard = globalClass
	s.push(entry{at: t, seq: seq, slot: slot})
}

// allocLaneItem takes an item from the free list, growing the slab on
// demand.
func (s *Scheduler) allocLaneItem() int32 {
	if id := s.laneFree; id != laneNil {
		s.laneFree = s.laneItems[id].next
		return id
	}
	s.laneItems = append(s.laneItems, laneItem{})
	return int32(len(s.laneItems) - 1)
}

// freeLaneItem recycles an item, dropping its payload reference.
func (s *Scheduler) freeLaneItem(id int32) {
	s.laneItems[id] = laneItem{next: s.laneFree}
	s.laneFree = id
}

// fireLane is fire for a lane head, whose heap entry top is the root: the
// next item's reserved key replaces the root in place (one siftDown, the
// slot stays with the lane), or the entry is popped if the lane drained.
func (s *Scheduler) fireLane(l *Lane, top entry) {
	id := l.head
	arg, next := s.laneItems[id].arg, s.laneItems[id].next
	s.freeLaneItem(id)
	l.head = next
	if next == laneNil {
		l.tail = laneNil
		s.popRoot()
		s.release(top.slot)
	} else {
		nx := &s.laneItems[next]
		s.heap[0] = entry{at: nx.at, seq: nx.seq, slot: top.slot}
		s.siftDown(0)
		s.laneQueued--
	}
	s.now = top.at
	s.Processed++
	l.actor.OnEvent(l.op, arg)
}

// spillLanes turns every lane item into an ordinary heap event under its
// reserved key and leaves the lanes empty. EnableShards calls it: from
// then on lanes post through the engine, and items posted before must not
// be stranded outside the heap the windows are seeded from.
func (s *Scheduler) spillLanes() {
	// Two passes: pushing while ranging over the heap would move the
	// entries still to be visited.
	var lanes []*Lane
	for _, en := range s.heap {
		sl := &s.slots[en.slot]
		if sl.kind != kindLane {
			continue
		}
		l := sl.arg.(*Lane)
		sl.kind, sl.actor, sl.op, sl.arg = kindEvent, l.actor, l.op, s.laneItems[l.head].arg
		lanes = append(lanes, l)
	}
	for _, l := range lanes {
		for id := l.head; id != laneNil; {
			it := s.laneItems[id]
			if id != l.head {
				slot := s.allocSlot()
				sl := &s.slots[slot]
				sl.actor, sl.op, sl.arg, sl.shard = l.actor, l.op, it.arg, globalClass
				s.push(entry{at: it.at, seq: it.seq, slot: slot})
			}
			s.freeLaneItem(id)
			id = it.next
		}
		l.head, l.tail = laneNil, laneNil
	}
	s.laneQueued = 0
}

// verifyLanes checks the lane invariants for VerifyInvariants: every lane
// with items is reachable from exactly one heap entry whose key is its
// head's; items are sorted by (at, seq) and end at the lane's tail; and
// the items in lanes plus the free list account for the whole slab.
func (s *Scheduler) verifyLanes() error {
	n := len(s.laneItems)
	seen := make([]bool, n)
	visit := func(id int32, where string) error {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("sim: %s references lane item %d outside slab of %d", where, id, n)
		}
		if seen[id] {
			return fmt.Errorf("sim: lane item %d reached twice (%s)", id, where)
		}
		seen[id] = true
		return nil
	}
	used, queued := 0, 0
	for i, e := range s.heap {
		sl := &s.slots[e.slot]
		if sl.kind != kindLane {
			continue
		}
		l, ok := sl.arg.(*Lane)
		if !ok || l.s != s {
			return fmt.Errorf("sim: lane slot %d at heap index %d does not carry one of this scheduler's lanes", e.slot, i)
		}
		if l.head == laneNil {
			return fmt.Errorf("sim: heap index %d belongs to an empty lane", i)
		}
		prev := laneNil
		for id := l.head; id != laneNil; id = s.laneItems[id].next {
			if err := visit(id, "a lane"); err != nil {
				return err
			}
			it := &s.laneItems[id]
			switch {
			case prev == laneNil:
				if it.at != e.at || it.seq != e.seq {
					return fmt.Errorf("sim: lane head (at=%v seq=%d) != its heap entry (at=%v seq=%d)", it.at, it.seq, e.at, e.seq)
				}
			case it.at < s.laneItems[prev].at || it.seq <= s.laneItems[prev].seq:
				return fmt.Errorf("sim: lane items out of order: (at=%v seq=%d) queued behind (at=%v seq=%d)",
					it.at, it.seq, s.laneItems[prev].at, s.laneItems[prev].seq)
			default:
				queued++
			}
			used++
			prev = id
		}
		if prev != l.tail {
			return fmt.Errorf("sim: lane tail is item %d but its list ends at item %d", l.tail, prev)
		}
	}
	free := 0
	for id := s.laneFree; id != laneNil; id = s.laneItems[id].next {
		if err := visit(id, "the lane free list"); err != nil {
			return err
		}
		free++
	}
	if used+free != n {
		return fmt.Errorf("sim: %d lane items in lanes + %d free != slab of %d", used, free, n)
	}
	if queued != s.laneQueued {
		return fmt.Errorf("sim: %d items queued behind lane heads, counter says %d", queued, s.laneQueued)
	}
	return nil
}
