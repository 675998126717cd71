package main

import (
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// kernelDescription names the kernel generation being measured; it is
// recorded in BENCH_kernel.json so before/after blocks are labelled.
const kernelDescription = "inlined 4-ary min-heap over pooled event slots with branch-free child selection ((at, seq) compared as one 128-bit number through the subtraction borrow, a full group of four children reduced as a tournament with an arithmetic winner index), typed actor dispatch on hot paths, FIFO wire lanes (key reserved at post time, one heap entry per wire, items in pooled 8-entry chunks), deferred root pop (a handler's first post takes the firing root's place), packets recycled through a per-view pool at the TCP sinks and at the link that drops them (unsharded views), TCP reassembly and SACK state as sorted runs in reused slices, pluggable congestion-control policy behind a per-flow interface, access and reverse links as one-event pipes and a drop-tail/RED bottleneck that posts each arrival when it admits the packet (link.Link: start = max(now, free), waiting packets kept as values in a lazily popped ring), TCP sender with one high-water mark (a late cumulative ACK raises sndNxt; a send below sndMax is a retransmission, counted and never RTT-timed)"

// churn is the kernel_churn cell's actor: each firing re-posts it 10 ns
// out until n events have fired.
type churn struct {
	s        *sim.Scheduler
	fired, n int
}

func (c *churn) OnEvent(int32, any) {
	c.fired++
	if c.fired < c.n {
		c.s.PostAfter(10*units.Nanosecond, c, 0, nil)
	}
}

// kernelChurn drives the scheduler through n events with a rolling window
// of 100 pending timers — the steady-state load a packet simulation
// produces (every in-flight packet holds a pending transmit/propagate
// event, every sender an RTO).
func kernelChurn(n int) {
	s := sim.NewScheduler()
	c := &churn{s: s, n: n}
	for j := 0; j < 100 && j < n; j++ {
		s.PostAfter(units.Duration(j), c, 0, nil)
	}
	s.Run(units.Never.Add(-units.Nanosecond))
}

// The kernel_lanes cell: wireCount wires each keep wireInFlight packets
// propagating, every arrival sending the next packet down the same wire
// — the heap load of a 1000-flow dumbbell (2001 links, ~33k packets in
// flight) with the TCP, queue and link work taken out.
const (
	wireCount    = 2000
	wireInFlight = 16
	wireSpacing  = units.Duration(wireCount + 1) // gap between one wire's packets
	wireDelay    = wireInFlight * wireSpacing
)

// wires re-posts each arrival onto the wire it came off, through that
// wire's lane or — the reference cell — through PostAfter.
type wires struct {
	s     *sim.Scheduler
	lanes []*sim.Lane // nil: every packet is its own heap entry
	left  int
}

func (w *wires) OnEvent(op int32, _ any) {
	if w.left > 0 {
		w.left--
		w.post(int(op), wireDelay)
	}
}

func (w *wires) post(wire int, d units.Duration) {
	if w.lanes != nil {
		w.lanes[wire].PostAfter(d, nil)
	} else {
		w.s.PostAfter(d, w, int32(wire), nil)
	}
}

// kernelLanes fires n arrivals of the pattern above. Both modes dispatch
// the identical (time, seq) sequence; they differ only in heap depth:
// wireCount entries with lanes, wireCount*wireInFlight without.
func kernelLanes(n int, useLanes bool) {
	s := sim.NewScheduler()
	w := &wires{s: s, left: n - wireCount*wireInFlight}
	if useLanes {
		for i := 0; i < wireCount; i++ {
			w.lanes = append(w.lanes, s.NewLane(w, int32(i)))
		}
	}
	for j := 0; j < wireInFlight; j++ {
		for i := 0; i < wireCount; i++ {
			w.post(i, units.Duration(j)*wireSpacing+units.Duration(i))
		}
	}
	s.Run(units.Never.Add(-units.Nanosecond))
}

// The kernel_imminent cell: a token passes round imminentActors actors,
// each handler posting its successor 1-500 ns ahead, over a standing
// backlog of one far timer per actor — a link's opTxDone at 1000 flows,
// due before anything the heap holds, with the heap as deep as the
// dumbbell's (~2000 entries). Every token post lands before the backlog;
// posted from the handler, it takes the firing root's place and sifts
// down from there.
const (
	imminentActors = 2000
	imminentTokens = 2 // two in flight, so a post is not always the earliest
	imminentFar    = units.Duration(3600 * units.Second)
)

// ring is the actors of kernel_imminent; op is the actor's index.
type ring struct {
	s    *sim.Scheduler
	left int
}

func (r *ring) OnEvent(op int32, arg any) {
	if arg == nil || r.left == 0 {
		return // a far timer, or the run is over
	}
	r.left--
	next := (op + 1) % imminentActors
	r.s.PostAfter(units.Duration(1+(int(next)*37)%500), r, next, r)
}

// kernelImminent fires n events: the far timers last, the token's
// before them.
func kernelImminent(n int) {
	s := sim.NewScheduler()
	r := &ring{s: s, left: n - imminentActors - imminentTokens}
	for i := 0; i < imminentActors; i++ {
		s.PostAfter(imminentFar+units.Duration(i), r, int32(i), nil)
	}
	for k := 0; k < imminentTokens; k++ {
		s.PostAfter(units.Duration(1+k), r, int32(k*imminentActors/imminentTokens), r)
	}
	s.Run(units.Never.Add(-units.Nanosecond))
}
