// Command layers times the simulator's layers one at a time, through the
// public functions of its internal packages, at the operating point of one
// benchmark workload. The traced run of benchmark/ starts it as a child and
// folds the JSON it prints into the per-layer table; nothing here feeds an
// end-to-end metric.
//
// Every driver does a fixed amount of work (so two commits do the same),
// repeats it five times and reports the fastest, because on a shared
// machine noise only ever adds time.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
	"unsafe"

	"bufsim/internal/link"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/runcache"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// point is the workload's operating point: what the in-situ run looked
// like, so the isolated drivers can be run where it runs.
type point struct {
	flows  int
	rate   units.BitRate
	buffer int
	heap   int // the in-situ sim.heap_depth_max
	red    bool
	sack   bool
}

type spanRec struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type output struct {
	Metrics map[string]float64 `json:"metrics"`
	Failed  []string           `json:"failed"`
	Spans   []spanRec          `json:"spans"`

	t0 time.Time
}

// drive runs one driver under a span. A driver that panics (an API it
// leans on changed its contract) is listed in Failed and the rest go on.
func (o *output) drive(name string, fn func(set func(metric string, v float64))) {
	start := time.Since(o.t0).Nanoseconds()
	defer func() {
		o.Spans = append(o.Spans, spanRec{name, start, time.Since(o.t0).Nanoseconds()})
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "layers: %s: %v\n", name, r)
			o.Failed = append(o.Failed, name)
		}
	}()
	fn(func(metric string, v float64) { o.Metrics[metric] = v })
}

// best runs fn five times and returns the fastest run's nanoseconds per op.
func best(ops int, fn func()) float64 {
	fastest := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < fastest {
			fastest = d
		}
	}
	return float64(fastest.Nanoseconds()) / float64(ops)
}

// lcg is a fixed pseudo-random sequence for the drivers' own choices.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 33)
}

func main() {
	var p point
	var rateMbps int
	tmp := flag.String("tmp", os.TempDir(), "scratch directory for the runcache drivers")
	flag.IntVar(&p.flows, "flows", 30, "flows at the operating point")
	flag.IntVar(&rateMbps, "rate-mbps", 60, "bottleneck rate at the operating point")
	flag.IntVar(&p.buffer, "buffer", 55, "bottleneck buffer in packets")
	flag.IntVar(&p.heap, "heap", 900, "pending events at the operating point (in-situ sim.heap_depth_max)")
	flag.BoolVar(&p.red, "red", false, "RED at the bottleneck")
	flag.BoolVar(&p.sack, "sack", false, "SACK senders")
	flag.Parse()
	p.rate = units.BitRate(rateMbps) * units.Mbps

	o := &output{Metrics: map[string]float64{}, Failed: []string{}, t0: time.Now()}
	o.drive("sim.push_pop", func(set func(string, float64)) { set("sim.push_pop_ns", pushPop(p.heap)) })
	o.drive("sim.resched", func(set func(string, float64)) { set("sim.resched_ns", resched(p.flows)) })
	o.drive("link.send_deliver", func(set func(string, float64)) { set("link.send_deliver_ns", sendDeliver(p.rate)) })
	for _, q := range []struct {
		name string
		mk   func() queue.Queue
	}{
		{"droptail", func() queue.Queue { return queue.NewDropTail(queue.PacketLimit(queueLimit)) }},
		{"red", func() queue.Queue {
			r := lcg(1)
			return queue.NewRED(queue.DefaultRED(queueLimit, units.Microsecond, func() float64 { return float64(r.next()%1000) / 1000 }))
		}},
		{"codel", func() queue.Queue { return queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(queueLimit)}) }},
	} {
		o.drive("queue.enq_deq."+q.name, func(set func(string, float64)) { set("queue.enq_deq_ns."+q.name, enqDeq(q.mk)) })
	}
	for _, cc := range []struct {
		name string
		v    tcp.Variant
	}{{"reno", tcp.Reno}, {"sack", tcp.Sack}, {"cubic", tcp.Cubic}, {"bbr", tcp.BBR}} {
		o.drive("tcp.per_ack."+cc.name, func(set func(string, float64)) {
			ns, allocs := perAck(cc.v)
			set("tcp.per_ack_ns."+cc.name, ns)
			set("tcp.per_ack_allocs."+cc.name, allocs)
		})
	}
	o.drive("tcp.sender_bytes", func(set func(string, float64)) { set("tcp.sender_bytes_per_flow", senderBytes()) })
	o.drive("packet.alloc", func(set func(string, float64)) {
		set("packet.bytes_each", float64(unsafe.Sizeof(packet.Packet{})))
		set("packet.alloc_ns", packetAlloc())
	})
	o.drive("packet.allocs_per_event", func(set func(string, float64)) {
		allocs, bytes := allocsPerEvent(p)
		set("packet.allocs_per_event", allocs)
		set("packet.alloc_bytes_per_event", bytes)
	})
	for _, n := range []int{30, 1000} {
		o.drive(fmt.Sprintf("topology.build.n%d", n), func(set func(string, float64)) {
			q := point{flows: n, rate: p.rate, buffer: p.buffer}
			set(fmt.Sprintf("topology.build_us_per_flow.n%d", n), best(n, func() { dumbbell(q) })/1e3)
		})
	}
	o.drive("workload.flow_cycle", func(set func(string, float64)) { set("workload.flow_cycle_us", flowCycle()/1e3) })
	o.drive("runcache", func(set func(string, float64)) {
		key, put, get := runCache(filepath.Join(*tmp, "layers-runcache"))
		set("runcache.key_us", key/1e3)
		set("runcache.put_us", put/1e3)
		set("runcache.get_us", get/1e3)
	})

	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// churn keeps a fixed number of events pending: each one that fires posts
// its successor a pseudo-random distance ahead, so pushes land all over
// the heap as the deliveries, ACKs and timers of a packet simulation do.
type churn struct {
	s     *sim.Scheduler
	left  int
	depth uint64
	r     lcg
}

func (c *churn) OnEvent(int32, any) {
	if c.left > 0 {
		c.left--
		c.s.PostAfter(units.Duration(1+c.r.next()%(2*c.depth)), c, 0, nil)
	}
}

// pushPop is the kernel's cost of one PostAfter plus one fire with depth
// events pending.
func pushPop(depth int) float64 {
	const ops = 300_000
	return best(ops, func() {
		s := sim.NewScheduler()
		c := &churn{s: s, left: ops - depth, depth: uint64(depth), r: 1}
		for j := 0; j < depth; j++ {
			s.PostAfter(units.Duration(1+c.r.next()%(2*c.depth)), c, 0, nil)
		}
		s.Run(units.Never.Add(-units.Nanosecond))
	})
}

// rearm is what a TCP sender does to its retransmission timer on every
// ACK: cancel it and post it again one RTO ahead. One timer per flow stays
// pending; a ticker event stands in for the arriving ACKs.
type rearm struct {
	s      *sim.Scheduler
	timers []sim.Event
	left   int
}

func (a *rearm) OnEvent(op int32, _ any) {
	if op != 0 || a.left == 0 {
		return // op 1 is a timer firing; none should within the run
	}
	a.left--
	i := a.left % len(a.timers)
	a.s.Cancel(a.timers[i])
	a.timers[i] = a.s.PostAfter(200*units.Millisecond, a, 1, nil)
	a.s.PostAfter(10*units.Nanosecond, a, 0, nil)
}

func resched(flows int) float64 {
	const ops = 300_000
	return best(ops, func() {
		s := sim.NewScheduler()
		a := &rearm{s: s, timers: make([]sim.Event, flows), left: ops}
		for i := range a.timers {
			a.timers[i] = s.PostAfter(200*units.Millisecond, a, 1, nil)
		}
		s.PostAfter(0, a, 0, nil)
		s.Run(units.Epoch.Add(100 * units.Millisecond))
	})
}

// feeder offers the link one packet per transmission time, so the link
// stays busy and its queue short; packets come from a ring far longer than
// what is in flight, because the link owns a packet until it is delivered.
type feeder struct {
	s     *sim.Scheduler
	l     *link.Link
	ring  []packet.Packet
	gap   units.Duration
	left  int
	count int
}

func (f *feeder) OnEvent(int32, any) {
	if f.left == 0 {
		return
	}
	f.left--
	p := &f.ring[f.left%len(f.ring)]
	*p = packet.Packet{Seq: int64(f.left), Size: units.DefaultSegment}
	f.l.Send(p)
	f.s.PostAfter(f.gap, f, 0, nil)
}

func (f *feeder) Handle(*packet.Packet) { f.count++ }

// sendDeliver is one packet's way through a link: Send, the queue,
// serialization, propagation and the hand-over to the next handler.
func sendDeliver(rate units.BitRate) float64 {
	const ops = 200_000
	return best(ops, func() {
		s := sim.NewScheduler()
		f := &feeder{s: s, ring: make([]packet.Packet, 1<<14), gap: units.TransmissionTime(units.DefaultSegment, rate), left: ops}
		f.l = link.New("bench", s, rate, units.Millisecond, queue.NewDropTail(queue.PacketLimit(1024)), f)
		s.PostAfter(0, f, 0, nil)
		s.Run(units.Never.Add(-units.Nanosecond))
		if f.count != ops {
			panic(fmt.Sprintf("link delivered %d of %d packets", f.count, ops))
		}
	})
}

const queueLimit = 1024

// enqDeq is one Enqueue plus one Dequeue on a queue that starts half full.
func enqDeq(mk func() queue.Queue) float64 {
	const ops = 500_000
	ring := make([]packet.Packet, 2*queueLimit)
	for i := range ring {
		ring[i] = packet.Packet{Seq: int64(i), Size: units.DefaultSegment}
	}
	return best(ops, func() {
		q := mk()
		now := units.Epoch
		for i := 0; i < queueLimit/2; i++ {
			q.Enqueue(&ring[i], now)
		}
		for i := queueLimit / 2; i < queueLimit/2+ops; i++ {
			now = now.Add(units.Microsecond)
			q.Enqueue(&ring[i%len(ring)], now)
			q.Dequeue(now)
		}
	})
}

// pipe is a lossless fixed-delay path between a sender and a receiver.
type pipe struct {
	s   *sim.Scheduler
	dst packet.Handler
}

func (p *pipe) Handle(pk *packet.Packet) { p.s.PostAfter(10*units.Millisecond, p, 0, pk) }
func (p *pipe) OnEvent(_ int32, arg any) { p.dst.Handle(arg.(*packet.Packet)) }

// perAck is the cost of one ACK's worth of TCP — the segment sent, its
// reception, the ACK and the sender's reaction — for one flow of the given
// congestion controller over a lossless pipe, and the heap allocations it
// makes. The window is capped so that BBR's start-up ends.
func perAck(v tcp.Variant) (ns, allocs float64) {
	const segments = 40_000
	var acks int64
	var mallocs uint64
	ns = best(1, func() {
		s := sim.NewScheduler()
		fwd, rev := &pipe{s: s}, &pipe{s: s}
		cfg := tcp.Config{Flow: 1, Variant: v, TotalSegments: segments, MaxWindow: 64}
		snd := tcp.NewSender(cfg, s, fwd)
		fwd.dst, rev.dst = tcp.NewReceiver(cfg, s, rev), snd
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snd.Start()
		s.Run(units.Epoch.Add(3600 * units.Second))
		runtime.ReadMemStats(&after)
		if !snd.Finished() {
			panic(fmt.Sprintf("%v transfer did not finish", v))
		}
		acks, mallocs = snd.Stats().AcksReceived, after.Mallocs-before.Mallocs
	})
	return ns / float64(acks), float64(mallocs) / float64(acks)
}

type sink struct{}

func (sink) Handle(*packet.Packet) {}

// senderBytes is the heap one more sender costs once many share a slab.
func senderBytes() float64 {
	const n = 1 << 16
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := sim.NewScheduler()
	sl := tcp.NewSlab(16)
	senders := make([]*tcp.Sender, n)
	for i := range senders {
		senders[i] = tcp.NewSenderSlab(sl, tcp.Config{Flow: packet.FlowID(i + 1)}, s, sink{})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(senders)
	return float64(after.HeapAlloc-before.HeapAlloc) / n
}

var packetSink [1024]*packet.Packet

// packetAlloc is the cost of heap-allocating one packet, collector included.
func packetAlloc() float64 {
	const ops = 2_000_000
	return best(ops, func() {
		for i := 0; i < ops; i++ {
			packetSink[i%len(packetSink)] = &packet.Packet{Seq: int64(i), Size: units.DefaultSegment}
		}
	})
}

// dumbbell builds the long-lived scenario the CLIs run at point p — the
// topology and its flows, started but not run — the way
// internal/experiment does.
func dumbbell(p point) (*sim.Scheduler, *topology.Dumbbell) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(1)
	cfg := topology.Config{
		Sched:           s,
		RNG:             rng.Fork(),
		BottleneckRate:  p.rate,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(p.buffer),
		Stations:        p.flows,
		RTTMin:          60 * units.Millisecond,
		RTTMax:          100 * units.Millisecond,
	}
	if p.red {
		redRNG := rng.Fork()
		cfg.NewQueue = func() queue.Queue {
			return queue.NewRED(queue.DefaultRED(p.buffer, units.TransmissionTime(units.DefaultSegment, p.rate), redRNG.Float64))
		}
	}
	d := topology.NewDumbbell(cfg)
	spec := tcp.Config{SegmentSize: units.DefaultSegment}
	if p.sack {
		spec.Variant = tcp.Sack
	}
	workload.StartLongLived(d, p.flows, spec, rng.Fork(), 500*units.Millisecond)
	return s, d
}

// allocsPerEvent runs the dumbbell at point p and counts heap allocations
// and bytes per kernel event, after a simulated second of warm-up, over
// about 300k events. Nearly all of them are packets.
func allocsPerEvent(p point) (allocs, bytes float64) {
	s, _ := dumbbell(p)
	warm := units.Epoch.Add(units.Second)
	s.Run(warm)
	pktPerSec := float64(p.rate) / float64(units.DefaultSegment.Bits())
	window := units.Duration(300_000 / (6 * pktPerSec) * float64(units.Second))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := s.Processed
	s.Run(warm.Add(window))
	runtime.ReadMemStats(&after)
	n := float64(s.Processed - events)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// flowCycle is one short flow's life: AddFlow, a 14-segment transfer,
// RemoveFlow — what a flow generator does thousands of times a run.
func flowCycle() float64 {
	const cycles = 2000
	return best(cycles, func() {
		s := sim.NewScheduler()
		d := topology.NewDumbbell(topology.Config{
			Sched: s, BottleneckRate: 100 * units.Mbps, BottleneckDelay: 5 * units.Millisecond,
			Buffer: queue.PacketLimit(100), Stations: 1, RTTMin: 80 * units.Millisecond, RTTMax: 80 * units.Millisecond,
		})
		for i := 0; i < cycles; i++ {
			f := d.AddFlow(d.Station(0), tcp.Config{SegmentSize: units.DefaultSegment, TotalSegments: 14})
			f.Sender.Start()
			s.Run(s.Now().Add(units.Second))
			if !f.Sender.Finished() {
				panic("short flow did not finish")
			}
			d.RemoveFlow(f)
		}
	})
}

// sweepPoint has the size and mix of field kinds of the configs the
// experiment sweeps digest (experiment.LongLivedConfig).
type sweepPoint struct {
	Seed                     int64
	N, BufferPackets         int
	Rate                     units.BitRate
	Delay, RTTMin, RTTMax    units.Duration
	Warmup, Measure          units.Duration
	Segment                  units.ByteSize
	MaxWindow                int
	Variant                  tcp.Variant
	RED, CoDel, ECN, Delayed bool
	Paced, LegacyQueue       bool
	Name                     string
}

type sweepResult struct {
	N, Buffer                int
	Utilization, Loss, Queue float64
	Retransmits, Fairness    float64
	Timeouts                 int64
	DelayMean, DelayP99      units.Duration
}

// runCache times Key on a sweep point, and Put and Get of its result.
func runCache(dir string) (keyNS, putNS, getNS float64) {
	defer os.RemoveAll(dir)
	const points = 400
	cfg := sweepPoint{Seed: 1, N: 100, BufferPackets: 20, Rate: 20 * units.Mbps, Delay: 5 * units.Millisecond,
		RTTMin: 60 * units.Millisecond, RTTMax: 100 * units.Millisecond, Warmup: 5 * units.Second, Measure: 10 * units.Second,
		Segment: units.DefaultSegment, Name: "long-lived"}
	keys := make([]string, points)
	keyNS = best(points, func() {
		for i := range keys {
			cfg.Seed = int64(i)
			keys[i] = runcache.Key("benchmark", "long-lived", cfg)
		}
	})
	var store *runcache.Store
	putNS = best(points, func() {
		os.RemoveAll(dir)
		var err error
		if store, err = runcache.Open(dir); err != nil {
			panic(err)
		}
		for i, k := range keys {
			if err := store.Put(k, sweepResult{N: i, Utilization: 0.98}); err != nil {
				panic(err)
			}
		}
	})
	getNS = best(points, func() {
		for _, k := range keys {
			if _, ok := store.Get(k); !ok {
				panic("stored result not found")
			}
		}
	})
	return keyNS, putNS, getNS
}
