package tcp

import (
	"fmt"
	"sort"
	"testing"

	"bufsim/internal/link"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// wire is a fixed-delay path that posts typed events, so that — unlike
// pipe, which captures each packet in a closure — carrying a packet
// allocates nothing and any allocation the tests see is TCP's own.
type wire struct {
	sched *sim.Scheduler
	dst   packet.Handler
	drop  func(p *packet.Packet) bool
}

func (w *wire) Handle(p *packet.Packet) {
	if w.drop != nil && w.drop(p) {
		return
	}
	w.sched.PostAfter(10*units.Millisecond, w, 0, p)
}

func (w *wire) OnEvent(_ int32, arg any) { w.dst.Handle(arg.(*packet.Packet)) }

// wiredConn joins a sender and a receiver over two wires and hands both
// the same pool (nil for none).
func wiredConn(cfg Config, pool *packet.Pool) (*sim.Scheduler, *Sender, *Receiver, *wire) {
	s := sim.NewScheduler()
	fwd, rev := &wire{sched: s}, &wire{sched: s}
	snd, rcv := NewSender(cfg, s, fwd), NewReceiver(cfg, s, rev)
	snd.SetPool(pool)
	rcv.SetPool(pool)
	fwd.dst, rev.dst = rcv, snd
	return s, snd, rcv, fwd
}

// TestPooledLoopAllocatesNothing: once the window has reached its cap, a
// sender and receiver sharing a pool exchange segments and ACKs without
// allocating. The same loop with no pool still allocates every segment
// and every ACK, so the zero is the pool's doing and not the test's.
func TestPooledLoopAllocatesNothing(t *testing.T) {
	const window = 32
	for _, v := range []Variant{Reno, Sack, Cubic, BBR} {
		perRTT := func(pool *packet.Pool) float64 {
			s, snd, _, _ := wiredConn(Config{Flow: 1, Variant: v, MaxWindow: window}, pool)
			snd.Start()
			until := units.Epoch.Add(5 * units.Second)
			s.Run(until)
			return testing.AllocsPerRun(50, func() {
				until = until.Add(20 * units.Millisecond) // one round trip: a window of ACKs
				s.Run(until)
			})
		}
		if n := perRTT(packet.NewPool(false)); n != 0 {
			t.Errorf("%v: %v allocations per round trip through a pool, want 0", v, n)
		}
		if n := perRTT(nil); n < window {
			t.Errorf("%v: %v allocations per round trip without a pool, want at least one per ACK (%d)", v, n, window)
		}
	}

	// The same over a lossy path: a real link in the forward direction
	// whose eight-packet queue overflows in slow start and also rejects
	// every 29th segment, with the pool as its drop pool. Out-of-order
	// arrivals, SACK blocks, the scoreboard, fast retransmits and timeouts
	// then run all the time, and none of it allocates once the run slices
	// have seen their widest spread; a rejected packet costs a Put, where
	// without the drop pool it costs the allocation of its replacement.
	// The link runs each of its two paths: the admission path every
	// drop-tail and RED bottleneck takes (a queue.FIFO), and the
	// transmit-done path of any other discipline.
	for _, v := range []Variant{Reno, Sack} {
		for _, fifo := range []bool{true, false} {
			lossy := func(pool, dropPool *packet.Pool) (allocs float64, drops int64) {
				s := sim.NewScheduler()
				cfg := Config{Flow: 1, Variant: v, MaxWindow: window}
				rev := &wire{sched: s}
				rcv := NewReceiver(cfg, s, rev)
				dt := queue.NewDropTail(queue.PacketLimit(8))
				var q queue.Queue
				rej := &rejecter{k: 29}
				if fifo {
					q = &everyKthFIFO{DropTail: dt, rejecter: rej}
				} else {
					q = &everyKth{Queue: dt, rejecter: rej}
				}
				if _, isFIFO := q.(queue.FIFO); isFIFO != fifo {
					t.Fatalf("%T: queue.FIFO %v, want %v", q, isFIFO, fifo)
				}
				fwd := link.New("lossy", s, units.Gbps, 10*units.Millisecond, q, rcv)
				fwd.SetDropPool(dropPool)
				snd := NewSender(cfg, s, fwd)
				rev.dst = snd
				snd.SetPool(pool)
				rcv.SetPool(pool)
				snd.Start()
				until := units.Epoch.Add(20 * units.Second)
				s.Run(until)
				before := dt.Stats().DroppedPackets + rej.rejected
				// One measured call of 1000 round trips: AllocsPerRun
				// divides in integers, and a loss every few round trips
				// must not round to nothing.
				allocs = testing.AllocsPerRun(1, func() {
					until = until.Add(1000 * 20 * units.Millisecond)
					s.Run(until)
				})
				return allocs, dt.Stats().DroppedPackets + rej.rejected - before
			}
			pool := packet.NewPool(false)
			n, drops := lossy(pool, pool)
			if n != 0 || drops < 100 {
				t.Errorf("%v, FIFO %v: %v allocations in 1000 lossy round trips with %d drops, want 0 and at least 100", v, fifo, n, drops)
			}
			if n, _ := lossy(packet.NewPool(false), nil); n == 0 {
				t.Errorf("%v, FIFO %v: no allocations on the lossy path without a drop pool: the test measures nothing", v, fifo)
			}
		}
	}
}

// rejecter refuses every k-th packet offered to it.
type rejecter struct {
	k, n     int
	rejected int64
}

func (r *rejecter) reject() bool {
	if r.n++; r.n%r.k != 0 {
		return false
	}
	r.rejected++
	return true
}

// everyKth is a queue that also rejects every k-th packet offered. It
// embeds the Queue interface, so it is no queue.FIFO and its link takes
// the transmit-done path.
type everyKth struct {
	queue.Queue
	*rejecter
}

func (q *everyKth) Enqueue(p *packet.Packet, now units.Time) bool {
	return !q.reject() && q.Queue.Enqueue(p, now)
}

// everyKthFIFO is a drop-tail that also rejects every k-th packet
// offered. It stays a queue.FIFO, so its link takes the admission path.
type everyKthFIFO struct {
	*queue.DropTail
	*rejecter
}

func (q *everyKthFIFO) Admit(p *packet.Packet, now units.Time) bool {
	return !q.reject() && q.DropTail.Admit(p, now)
}

// TestPoolDoesNotChangeBehaviour: a lossy transfer — fast retransmits,
// SACK blocks riding in recycled packets, timeouts — runs event for event
// the same through a shared pool, through a poisoning pool and with no
// pool at all.
func TestPoolDoesNotChangeBehaviour(t *testing.T) {
	for _, v := range []Variant{Reno, NewReno, Sack, Cubic} {
		run := func(pool *packet.Pool) string {
			cfg := Config{Flow: 1, Variant: v, TotalSegments: 3000, MaxWindow: 64, ECN: true}
			s, snd, rcv, fwd := wiredConn(cfg, pool)
			var n int
			fwd.drop = func(p *packet.Packet) bool {
				n++
				// Isolated losses, a burst, and a CE mark now and then.
				if n%97 == 0 {
					p.Flags |= packet.FlagCE
				}
				return n%53 == 0 || (n%700 >= 690 && n%700 < 696)
			}
			snd.Start()
			s.Run(units.Epoch.Add(600 * units.Second))
			if !snd.Finished() {
				t.Fatalf("%v: transfer did not finish", v)
			}
			return fmt.Sprintf("%+v rcv{%d %d %d %d %v} events %d", snd.Stats(),
				rcv.ReceivedSegments, rcv.DupSegments, rcv.AcksSent, rcv.CEMarksSeen, rcv.CompletedAt, s.Processed)
		}
		want := run(nil)
		if got := run(packet.NewPool(false)); got != want {
			t.Errorf("%v: pooled run differs\n got %s\nwant %s", v, got, want)
		}
		if got := run(packet.NewPool(true)); got != want {
			t.Errorf("%v: poisoned run differs\n got %s\nwant %s", v, got, want)
		}
	}
}

// sackBlocksReference is the construction sackBlocks replaced: build
// every run, sort them freshest-first, truncate.
func sackBlocksReference(ooo map[int64]bool, justArrived int64, max int) [][2]int64 {
	if len(ooo) == 0 {
		return nil
	}
	segs := make([]int64, 0, len(ooo))
	for s := range ooo {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	var runs [][2]int64
	start, prev := segs[0], segs[0]
	for _, s := range segs[1:] {
		if s == prev+1 {
			prev = s
			continue
		}
		runs = append(runs, [2]int64{start, prev + 1})
		start, prev = s, s
	}
	runs = append(runs, [2]int64{start, prev + 1})
	sort.Slice(runs, func(i, j int) bool {
		ci := runs[i][0] <= justArrived && justArrived < runs[i][1]
		cj := runs[j][0] <= justArrived && justArrived < runs[j][1]
		if ci != cj {
			return ci
		}
		return runs[i][0] > runs[j][0]
	})
	if len(runs) > max {
		runs = runs[:max]
	}
	return runs
}

// TestSackBlocksMatchesReference checks sackBlocks against the reference
// on random out-of-order sets — dense enough to merge into few runs and
// sparse enough to leave many — and that it reuses the slice it is given.
func TestSackBlocksMatchesReference(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 2000; trial++ {
		span := 2 + rng.Intn(80)
		ooo := map[int64]bool{}
		for i, n := 0, rng.Intn(span); i < n; i++ {
			ooo[int64(100+rng.Intn(span))] = true
		}
		just := int64(-1)
		if rng.Intn(4) > 0 {
			just = int64(100 + rng.Intn(span)) // often, but not always, in the set
		}
		max := 1 + rng.Intn(4)
		want := sackBlocksReference(ooo, just, max)
		dst := make([][2]int64, 0, 4)
		got := sackBlocks(dst, runsOf(ooo), just, max)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ooo %v just %d max %d: got %v, want %v", ooo, just, max, got, want)
		}
		if len(got) > 0 && &got[0] != &dst[:1][0] {
			t.Fatalf("sackBlocks did not write into the slice it was given")
		}
	}
}
