package sim

import (
	"fmt"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/metrics"
	"bufsim/internal/units"
)

// laneTwin drives one scheduler through a random program. Two twins with
// the same seed run the same program; one posts its lane traffic through
// Lanes, the other through PostAfter. Handlers draw from the twin's own
// RNG, so the programs stay in step only as long as dispatch order does.
type laneTwin struct {
	s       *Scheduler
	lanes   []*Lane // nil on the reference twin
	rng     *RNG
	handles []Event
	nextID  int
	log     []string
}

const twinLanes = 4

func newLaneTwin(seed int64, useLanes bool) *laneTwin {
	tw := &laneTwin{s: NewScheduler(), rng: NewRNG(seed)}
	if useLanes {
		for k := 0; k < twinLanes; k++ {
			tw.lanes = append(tw.lanes, tw.s.NewLane(tw, int32(k)))
		}
	}
	return tw
}

// OnEvent logs the dispatch and, a third of the time, posts again from
// inside the handler (as a link does from finishTransmit).
func (tw *laneTwin) OnEvent(op int32, arg any) {
	tw.log = append(tw.log, fmt.Sprintf("%v op%d #%d", tw.s.Now(), op, arg.(int)))
	if tw.rng.Intn(3) == 0 {
		tw.op()
	}
}

// op performs one random operation. Delays are drawn from a handful of
// small values so same-instant ties and lane posts earlier than the
// lane's tail (the fallback) both happen constantly.
func (tw *laneTwin) op() {
	d := units.Duration(tw.rng.Intn(6))
	tw.nextID++
	id := tw.nextID
	switch r := tw.rng.Intn(10); {
	case r < 5: // lane post
		k := tw.rng.Intn(twinLanes)
		if tw.lanes != nil {
			tw.lanes[k].PostAfter(d, id)
		} else {
			tw.s.PostAfter(d, tw, int32(k), id)
		}
	case r < 7: // plain typed post, sometimes on a lane's own opcode
		tw.handles = append(tw.handles, tw.s.PostAfter(d, tw, int32(tw.rng.Intn(twinLanes+2)), id))
	case r < 8: // closure
		tw.handles = append(tw.handles, tw.s.After(d, func() {
			tw.log = append(tw.log, fmt.Sprintf("%v fn #%d", tw.s.Now(), id))
		}))
	default: // cancel any handle: live, fired or recycled
		if len(tw.handles) > 0 {
			tw.s.Cancel(tw.handles[tw.rng.Intn(len(tw.handles))])
		}
	}
}

// TestLaneMatchesPostAfter is the determinism argument as a property: a
// random mix of lane posts, plain posts, closures, cancels, same-instant
// ties and out-of-order lane posts dispatches in exactly the order of a
// twin that uses PostAfter for everything — including when Run stops
// between two items of one lane.
func TestLaneMatchesPostAfter(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a, b := newLaneTwin(seed, true), newLaneTwin(seed, false)
		for round := 0; round < 40; round++ {
			for _, tw := range []*laneTwin{a, b} {
				for i := 0; i < 12; i++ {
					tw.op()
				}
				// One or two ticks at a time: with delays up to 5 most
				// rounds stop with lanes part-drained.
				tw.s.Run(tw.s.Now() + units.Time(1+round%2))
			}
			if err := a.s.VerifyInvariants(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if a.s.Now() != b.s.Now() || a.s.Pending() != b.s.Pending() || a.s.Processed != b.s.Processed {
				t.Fatalf("seed %d round %d: lanes now=%v pending=%d processed=%d, reference now=%v pending=%d processed=%d",
					seed, round, a.s.Now(), a.s.Pending(), a.s.Processed, b.s.Now(), b.s.Pending(), b.s.Processed)
			}
		}
		a.s.Run(units.Never - 1)
		b.s.Run(units.Never - 1)
		if len(a.log) != len(b.log) {
			t.Fatalf("seed %d: %d dispatches with lanes, %d without", seed, len(a.log), len(b.log))
		}
		for i := range a.log {
			if a.log[i] != b.log[i] {
				t.Fatalf("seed %d: dispatch %d is %q with lanes, %q without", seed, i, a.log[i], b.log[i])
			}
		}
		if a.s.laneFallbacks == 0 || a.s.maxLaneQueued == 0 || len(a.s.laneChunks) <= twinLanes {
			t.Fatalf("seed %d exercised %d fallbacks, a lane depth of %d and %d chunks for %d lanes; the program should reach fallbacks and lanes that span chunks",
				seed, a.s.laneFallbacks, a.s.maxLaneQueued, len(a.s.laneChunks), twinLanes)
		}
		if a.s.MaxPending() >= b.s.MaxPending() {
			t.Errorf("seed %d: heap peaked at %d with lanes, %d without", seed, a.s.MaxPending(), b.s.MaxPending())
		}
	}
}

// TestLaneKeepsOneHeapEntry pins the accounting: k items on one lane are
// one heap entry plus k-1 queued items, Pending counts them all, and the
// gauges read heap + lane = pending.
func TestLaneKeepsOneHeapEntry(t *testing.T) {
	s := NewScheduler()
	reg := metrics.New()
	s.Instrument(reg)
	a := &testActor{}
	ln := s.NewLane(a, 3)
	const k = 5
	for i := 0; i < k; i++ {
		ln.PostAfter(units.Duration(10+i), i)
	}
	gauge := func(name string) int {
		reg.Collect()
		return int(reg.Gauge(name).Value())
	}
	if s.Pending() != k || gauge("sim.heap_depth") != 1 || gauge("sim.lane_depth") != k-1 {
		t.Fatalf("pending=%d heap=%d lane=%d, want %d/1/%d",
			s.Pending(), gauge("sim.heap_depth"), gauge("sim.lane_depth"), k, k-1)
	}
	s.Run(11) // fires items 0 and 1, stops inside the lane
	if len(a.args) != 2 || s.Pending() != k-2 || gauge("sim.lane_depth") != k-3 {
		t.Fatalf("after Run(11): fired %d, pending=%d lane=%d", len(a.args), s.Pending(), gauge("sim.lane_depth"))
	}
	s.Run(100)
	for i, arg := range a.args {
		if arg.(int) != i || a.ops[i] != 3 {
			t.Fatalf("dispatch %d = op %d arg %v", i, a.ops[i], arg)
		}
	}
	if len(a.args) != k || s.Pending() != 0 || s.MaxPending() != 1 || gauge("sim.lane_depth_max") != k-1 {
		t.Fatalf("after drain: fired %d, pending=%d, heap peak %d, lane peak %d",
			len(a.args), s.Pending(), s.MaxPending(), gauge("sim.lane_depth_max"))
	}
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLaneFallback: a post earlier than the lane's tail cannot queue
// behind it. It becomes an ordinary heap event, fires in (time, seq)
// order all the same, and is counted.
func TestLaneFallback(t *testing.T) {
	s := NewScheduler()
	reg := metrics.New()
	s.Instrument(reg)
	a := &testActor{}
	ln := s.NewLane(a, 0)
	ln.PostAfter(10, "late")
	ln.PostAfter(10, "tie") // equal time queues: seq breaks the tie
	ln.PostAfter(4, "early")
	if err := s.VerifyInvariants(); err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	if got := fmt.Sprint(a.args); got != "[early late tie]" {
		t.Errorf("dispatch order %s, want [early late tie]", got)
	}
	reg.Collect()
	if n := reg.Counter("sim.lane_fallbacks").Value(); n != 1 {
		t.Errorf("sim.lane_fallbacks = %d, want 1", n)
	}
}

func TestLaneNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative Lane.PostAfter did not panic")
		}
	}()
	s.NewLane(&testActor{}, 0).PostAfter(-1, nil)
}

// TestEnableShardsSpillsLanes: items a lane already holds when sharding
// is switched on re-enter the base heap under their reserved keys, and
// later posts on the same lane go through the engine — so the dispatch
// order is the one an unsharded scheduler produces.
func TestEnableShardsSpillsLanes(t *testing.T) {
	const tailItems = 2*laneChunkLen + 1
	run := func(shard bool) []any {
		s := NewScheduler()
		s.SetAuditor(audit.New())
		a := &testActor{}
		l1, l2 := s.NewLane(a, 1), s.NewLane(a, 2)
		l1.PostAfter(5, "a5")
		s.PostAfter(6, a, 0, "plain6")
		l2.PostAfter(6, "b6")
		l1.PostAfter(6, "a6")
		l1.PostAfter(9, "a9")
		for i := 0; i < tailItems; i++ { // a lane spanning several chunks
			l2.PostAfter(units.Duration(20+i), fmt.Sprint("t", i))
		}
		if shard {
			s.EnableShards(2, 100)
			if s.Pending() != 5+tailItems || s.root().laneQueued != 0 {
				t.Fatalf("after EnableShards: pending=%d, %d items still in lanes", s.Pending(), s.root().laneQueued)
			}
			if err := s.VerifyInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		l2.PostAfter(6, "b6'")
		l1.PostAfter(2, "a2")
		s.Run(100)
		if err := s.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
		return a.args
	}
	want, got := fmt.Sprint(run(false)), fmt.Sprint(run(true))
	order := []any{"a2", "a5", "plain6", "b6", "a6", "b6'", "a9"}
	for i := 0; i < tailItems; i++ {
		order = append(order, fmt.Sprint("t", i))
	}
	if want != fmt.Sprint(order) {
		t.Errorf("unsharded order %s", want)
	}
	if got != want {
		t.Errorf("sharded order %s, unsharded %s", got, want)
	}
}

// TestVerifyInvariantsCatchesLaneCorruption plants each kind of lane
// damage and requires VerifyInvariants to name it.
func TestVerifyInvariantsCatchesLaneCorruption(t *testing.T) {
	build := func() (*Scheduler, *Lane) {
		s := NewScheduler()
		ln := s.NewLane(&testActor{}, 0)
		for i := 0; i < 2*laneChunkLen+3; i++ {
			ln.PostAfter(units.Duration(10+i), nil)
		}
		s.Run(units.Time(10 + laneChunkLen)) // first chunk drained and back on the free list
		return s, ln
	}
	cases := map[string]func(*Scheduler, *Lane){
		"unsorted items":      func(s *Scheduler, ln *Lane) { s.laneChunks[ln.tail][ln.toff-1].at = 0 },
		"head key != heap":    func(s *Scheduler, ln *Lane) { s.laneChunks[ln.head][ln.hoff].seq += 100 },
		"leaked chunk":        func(s *Scheduler, ln *Lane) { s.laneFree = laneNil },
		"chunk in two places": func(s *Scheduler, ln *Lane) { s.laneNext[ln.tail] = s.laneFree; ln.tail = s.laneFree; ln.toff = 1 },
		"chunk list loops":    func(s *Scheduler, ln *Lane) { s.laneNext[ln.tail] = ln.head; ln.tail = laneNil },
		"tail not the end":    func(s *Scheduler, ln *Lane) { ln.tail = laneNil },
		"head offset off":     func(s *Scheduler, ln *Lane) { ln.hoff = laneChunkLen },
		"tail offset off":     func(s *Scheduler, ln *Lane) { ln.toff = 0 },
		"queued counter off":  func(s *Scheduler, ln *Lane) { s.laneQueued++ },
		"lane emptied in use": func(s *Scheduler, ln *Lane) { ln.head = laneNil },
	}
	for name, corrupt := range cases {
		s, ln := build()
		if err := s.VerifyInvariants(); err != nil {
			t.Fatalf("%s: clean scheduler fails: %v", name, err)
		}
		corrupt(s, ln)
		if s.VerifyInvariants() == nil {
			t.Errorf("%s: VerifyInvariants did not notice", name)
		}
	}
}

// BenchmarkLaneChurn is BenchmarkSchedulerChurnTyped with the in-flight
// events spread over a few lanes instead of the heap.
func BenchmarkLaneChurn(b *testing.B) {
	s := NewScheduler()
	c := &laneChurnActor{limit: b.N}
	for k := 0; k < 4; k++ {
		c.lanes = append(c.lanes, s.NewLane(c, 0))
	}
	for j := 0; j < 100 && j < b.N; j++ {
		c.lanes[j%4].PostAfter(units.Duration(j), nil)
	}
	b.ResetTimer()
	s.Run(units.Never - 1)
}

type laneChurnActor struct {
	lanes []*Lane
	i     int
	limit int
}

func (c *laneChurnActor) OnEvent(int32, any) {
	c.i++
	if c.i < c.limit {
		c.lanes[c.i%4].PostAfter(100, nil)
	}
}
