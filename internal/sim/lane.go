package sim

import (
	"fmt"

	"bufsim/internal/units"
)

// laneNil terminates a lane's chunk list and the slab's free list.
const laneNil int32 = -1

// laneChunkLen is how many consecutive items of one lane sit side by side.
// Eight 32-byte items are four cache lines, so a lane's head and the item
// that replaces it in the heap share a line every other time and are
// adjacent lines otherwise.
const laneChunkLen = 8

// laneItem is one event posted through a Lane: its reserved (at, seq) key
// and its payload.
type laneItem struct {
	at  units.Time
	seq uint64
	arg any
}

// laneChunk holds up to laneChunkLen consecutive items of one lane. Chunks
// of every lane share one slab, Scheduler.laneChunks, so memory follows
// the events in flight rather than each lane's own high-water mark;
// Scheduler.laneNext, index for index, links a chunk to the one behind it
// in its lane (or to the next free chunk while on the free list). The link
// lives outside the chunk to keep chunks 256 bytes.
type laneChunk [laneChunkLen]laneItem

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
	// The items are a list of chunks head..tail: the lane's first item
	// (the one whose key is in the heap) is item hoff of chunk head, its
	// last is item toff-1 of chunk tail, and every chunk between is full.
	// head is laneNil when the lane is empty, and an emptied chunk goes
	// back to the free list at once.
	head, tail int32
	hoff, toff int32
}

// NewLane returns an empty lane delivering to a.OnEvent(op, arg).
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
	t := s.now.Add(d)
	if l.head == laneNil {
		seq := s.seq
		s.seq++
		c := s.allocLaneChunk()
		s.laneChunks[c][0] = laneItem{at: t, seq: seq, arg: arg}
		l.head, l.tail, l.hoff, l.toff = c, c, 0, 1
		slot := s.allocSlot()
		sl := &s.slots[slot]
		sl.kind = kindLane
		sl.arg = l
		s.push(entry{at: t, seq: seq, slot: slot})
		return
	}
	if t < s.laneChunks[l.tail][l.toff-1].at {
		s.laneFallbacks++
		s.PostAt(t, l.actor, l.op, arg)
		return
	}
	seq := s.seq
	s.seq++
	if l.toff == laneChunkLen {
		c := s.allocLaneChunk()
		s.laneNext[l.tail] = c
		l.tail, l.toff = c, 0
	}
	s.laneChunks[l.tail][l.toff] = laneItem{at: t, seq: seq, arg: arg}
	l.toff++
	s.laneQueued++
	if s.laneQueued > s.maxLaneQueued {
		s.maxLaneQueued = s.laneQueued
	}
}

// allocLaneChunk takes a chunk from the free list, growing the slab on
// demand. The chunk is empty and linked to nothing.
func (s *Scheduler) allocLaneChunk() int32 {
	if c := s.laneFree; c != laneNil {
		s.laneFree = s.laneNext[c]
		s.laneNext[c] = laneNil
		return c
	}
	s.laneChunks = append(s.laneChunks, laneChunk{})
	s.laneNext = append(s.laneNext, laneNil)
	return int32(len(s.laneChunks) - 1)
}

// freeLaneChunk recycles a chunk whose items have all fired (and so have
// already dropped their payload references).
func (s *Scheduler) freeLaneChunk(c int32) {
	s.laneNext[c] = s.laneFree
	s.laneFree = c
}

// fireLane is fire for a lane head, whose heap entry top is the root: the
// next item's reserved key replaces the root in place (one siftDown, the
// slot stays with the lane), or left as a hole (see fire) if the lane drained.
func (s *Scheduler) fireLane(l *Lane, top entry) {
	c := l.head
	it := &s.laneChunks[c][l.hoff]
	arg := it.arg
	it.arg = nil
	l.hoff++
	if c == l.tail && l.hoff == l.toff {
		s.freeLaneChunk(c)
		l.head, l.tail = laneNil, laneNil
		s.hole = 1
		s.release(top.slot)
	} else {
		if l.hoff == laneChunkLen {
			l.head, l.hoff = s.laneNext[c], 0
			s.freeLaneChunk(c)
		}
		nx := &s.laneChunks[l.head][l.hoff]
		s.heap[0] = entry{at: nx.at, seq: nx.seq, slot: top.slot}
		s.siftDown(0)
		s.laneQueued--
	}
	s.now = top.at
	s.Processed++
	s.dispatchLane++
	l.actor.OnEvent(l.op, arg)
	s.settle()
}

// each calls fn for every item of the lane in FIFO order, with the chunk
// holding it and the item's index in that chunk, until fn returns an
// error. limit bounds the chunks walked, so a corrupted (cyclic) list
// ends in an error rather than a hang.
func (l *Lane) each(limit int, fn func(c, i int32) error) error {
	off := l.hoff
	for c := l.head; c != laneNil; c = l.s.laneNext[c] {
		if limit--; limit < 0 || c < 0 || int(c) >= len(l.s.laneChunks) {
			return fmt.Errorf("sim: lane chunk list leaves the slab or loops at chunk %d", c)
		}
		end := int32(laneChunkLen)
		if c == l.tail {
			end = l.toff
		}
		for i := off; i < end; i++ {
			if err := fn(c, i); err != nil {
				return err
			}
		}
		off = 0
		if c == l.tail {
			break
		}
	}
	return nil
}

// verifyLanes checks the lane invariants for VerifyInvariants: every lane
// with items is reachable from exactly one heap entry whose key is its
// head's; its offsets are in range, its items are sorted by (at, seq) and
// its chunk list ends at its tail; and the chunks in lanes plus the free
// list account for the whole slab.
func (s *Scheduler) verifyLanes() error {
	n := len(s.laneChunks)
	if len(s.laneNext) != n {
		return fmt.Errorf("sim: %d lane chunks but %d links", n, len(s.laneNext))
	}
	seen := make([]bool, n)
	visit := func(c int32, where string) error {
		if c < 0 || int(c) >= n {
			return fmt.Errorf("sim: %s references lane chunk %d outside slab of %d", where, c, n)
		}
		if seen[c] {
			return fmt.Errorf("sim: lane chunk %d reached twice (%s)", c, where)
		}
		seen[c] = true
		return nil
	}
	used, queued := 0, 0
	for hi, e := range s.heap {
		sl := &s.slots[e.slot]
		if sl.kind != kindLane {
			continue
		}
		l, ok := sl.arg.(*Lane)
		if !ok || l.s != s {
			return fmt.Errorf("sim: lane slot %d at heap index %d does not carry one of this scheduler's lanes", e.slot, hi)
		}
		if l.head == laneNil {
			return fmt.Errorf("sim: heap index %d belongs to an empty lane", hi)
		}
		if l.hoff < 0 || l.hoff >= laneChunkLen || l.toff < 1 || l.toff > laneChunkLen || (l.head == l.tail && l.hoff >= l.toff) {
			return fmt.Errorf("sim: lane offsets out of range: head chunk %d item %d, tail chunk %d item %d", l.head, l.hoff, l.tail, l.toff)
		}
		var prev *laneItem
		last := laneNil
		err := l.each(n, func(c, i int32) error {
			if c != last {
				if err := visit(c, "a lane"); err != nil {
					return err
				}
				last = c
				used++
			}
			it := &s.laneChunks[c][i]
			switch {
			case prev == nil:
				if it.at != e.at || it.seq != e.seq {
					return fmt.Errorf("sim: lane head (at=%v seq=%d) != its heap entry (at=%v seq=%d)", it.at, it.seq, e.at, e.seq)
				}
			case it.at < prev.at || it.seq <= prev.seq:
				return fmt.Errorf("sim: lane items out of order: (at=%v seq=%d) queued behind (at=%v seq=%d)",
					it.at, it.seq, prev.at, prev.seq)
			default:
				queued++
			}
			prev = it
			return nil
		})
		if err != nil {
			return err
		}
		if last != l.tail {
			return fmt.Errorf("sim: lane tail is chunk %d but its list ends at chunk %d", l.tail, last)
		}
	}
	free := 0
	for c := s.laneFree; c != laneNil; c = s.laneNext[c] {
		if err := visit(c, "the lane free list"); err != nil {
			return err
		}
		free++
	}
	if used+free != n {
		return fmt.Errorf("sim: %d lane chunks in lanes + %d free != slab of %d", used, free, n)
	}
	if queued != s.laneQueued {
		return fmt.Errorf("sim: %d items queued behind lane heads, counter says %d", queued, s.laneQueued)
	}
	return nil
}
