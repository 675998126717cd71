package adversary

import (
	"testing"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/stats"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

func TestPatternRegistry(t *testing.T) {
	names := PatternNames()
	if len(names) != numPatterns {
		t.Fatalf("PatternNames() = %v, want %d entries", names, numPatterns)
	}
	for i, name := range names {
		p, err := ParsePattern(name)
		if err != nil || p != Pattern(i) {
			t.Errorf("ParsePattern(%q) = %v, %v", name, p, err)
		}
		if Pattern(i).String() != name {
			t.Errorf("Pattern(%d).String() = %q, want %q", i, Pattern(i).String(), name)
		}
		if Pattern(i).Doc() == "" {
			t.Errorf("Pattern(%d) has no doc line", i)
		}
	}
	for alias, want := range map[string]Pattern{
		"cbr-pulse":       PatternPulse,
		"BURST":           PatternPulse,
		"sync-aimd":       PatternSyncAIMD,
		"lockstep":        PatternSyncAIMD,
		" multihop-load ": PatternParkingLot,
	} {
		if p, err := ParsePattern(alias); err != nil || p != want {
			t.Errorf("ParsePattern(%q) = %v, %v; want %v", alias, p, err, want)
		}
	}
	if _, err := ParsePattern("nonsense"); err == nil {
		t.Error("ParsePattern accepted an unknown name")
	}
	var p Pattern
	if err := p.UnmarshalText([]byte("aimdsync")); err != nil || p != PatternSyncAIMD {
		t.Errorf("UnmarshalText = %v, %v", p, err)
	}
	if b, err := PatternParkingLot.MarshalText(); err != nil || string(b) != "parkinglot" {
		t.Errorf("MarshalText = %q, %v", b, err)
	}
	if _, err := Pattern(99).MarshalText(); err == nil {
		t.Error("MarshalText accepted an out-of-range pattern")
	}
}

// testDumbbell builds a small fixed-RTT dumbbell with a DropTail buffer.
func testDumbbell(stations, bufferPkts int, rate units.BitRate) (*sim.Scheduler, *topology.Dumbbell) {
	sched := sim.NewScheduler()
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		BottleneckRate:  rate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(bufferPkts),
		Stations:        stations,
		RTTMin:          100 * units.Millisecond,
		RTTMax:          100 * units.Millisecond,
	})
	return sched, d
}

func runPulse(t *testing.T) (*PulseDriver, *topology.Dumbbell) {
	t.Helper()
	sched, d := testDumbbell(4, 20, 10*units.Mbps)
	src := Pulse{
		Senders:  4,
		PeakRate: 40 * units.Mbps, // 4x the bottleneck during each burst
		Period:   200 * units.Millisecond,
		Duty:     0.25,
	}
	drv, ok := src.Bind(d, nil, tcp.Config{}).(*PulseDriver)
	if !ok {
		t.Fatal("pulse Bind did not return a *PulseDriver")
	}
	drv.Start(units.Epoch, units.Never)
	sched.Run(units.Epoch.Add(10 * units.Second))
	drv.Stop()
	sched.Run(units.Epoch.Add(12 * units.Second)) // drain in-flight packets
	return drv, d
}

// FuzzParsePattern: ParsePattern never panics, and a name it accepts
// names a registered pattern whose canonical name parses back to it.
func FuzzParsePattern(f *testing.F) {
	for _, s := range []string{"pulse", " AIMDSync ", "parking-lot", "", "pattern(7)", "pulse\x00"} {
		f.Add(s)
	}
	for _, n := range PatternNames() {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePattern(s)
		if err != nil {
			return
		}
		if p.Doc() == "" {
			t.Fatalf("ParsePattern(%q) = %v, not a registered pattern", s, p)
		}
		if back, err := ParsePattern(p.String()); err != nil || back != p {
			t.Fatalf("ParsePattern(%q) = %v, but its name %q parses to %v, %v", s, p, p.String(), back, err)
		}
	})
}

func TestPulseOverloadsDuringBursts(t *testing.T) {
	drv, d := runPulse(t)
	// 10s x 0.25 duty at 40 Mbps aggregate, quantized per train; allow a
	// few percent slack for the window-boundary packets.
	onAir := units.Duration(float64(10*units.Second) * 0.25)
	expected := int64(onAir) * int64(40*units.Mbps) / int64(units.Second) / int64(units.DefaultSegment.Bits())
	if low, high := expected*95/100, expected*105/100; drv.Sent() < low || drv.Sent() > high {
		t.Errorf("sent %d packets, want ~%d", drv.Sent(), expected)
	}
	// Each burst offers 4x the line rate: the 20-packet buffer must
	// overflow every period even though the mean load is only 1x.
	if lr := drv.LossRate(); lr < 0.05 {
		t.Errorf("loss rate %.4f; synchronized bursts should overflow the buffer", lr)
	}
	if got := d.Bottleneck.Queue().Stats().DroppedPackets; got == 0 {
		t.Error("bottleneck queue recorded no drops")
	}
	if drv.MeanDelay() <= 0 {
		t.Error("no delay samples recorded")
	}
	if drv.Generated() != 4 || drv.Active() != 0 {
		t.Errorf("generated %d active %d after stop", drv.Generated(), drv.Active())
	}
}

func TestPulseDeterministic(t *testing.T) {
	a, _ := runPulse(t)
	b, _ := runPulse(t)
	if a.Sent() != b.Sent() || a.Received() != b.Received() {
		t.Errorf("pulse runs diverged: %d/%d vs %d/%d",
			a.Sent(), a.Received(), b.Sent(), b.Received())
	}
}

// rttDumbbell is testDumbbell with station RTTs drawn from [lo, hi] by
// rng (lo == hi draws nothing: every station gets one RTT).
func rttDumbbell(stations, bufferPkts int, rate units.BitRate, lo, hi units.Duration, rng *sim.RNG) (*sim.Scheduler, *topology.Dumbbell) {
	sched := sim.NewScheduler()
	d := topology.NewDumbbell(topology.Config{
		Sched:           sched,
		RNG:             rng,
		BottleneckRate:  rate,
		BottleneckDelay: 10 * units.Millisecond,
		Buffer:          queue.PacketLimit(bufferPkts),
		Stations:        stations,
		RTTMin:          lo,
		RTTMax:          hi,
	})
	return sched, d
}

// cwndSpread runs an 8-flow SyncAIMD cohort (10 Mb/s, 25-packet buffer)
// on station RTTs drawn from [lo, hi) and returns the median, over
// samples every 100 ms from 10 s to 60 s, of the ratio of the largest to
// the smallest congestion window, and the cohort.
func cwndSpread(t *testing.T, lo, hi units.Duration) (float64, []*topology.Flow) {
	t.Helper()
	sched, d := rttDumbbell(8, 25, 10*units.Mbps, lo, hi, sim.NewRNG(3))
	drv := SyncAIMD{N: 8}.Bind(d, sim.NewRNG(1), tcp.Config{SegmentSize: units.DefaultSegment}).(*SyncAIMDDriver)
	drv.Start(units.Epoch, units.Never)
	var ratios []float64
	for at := 10 * units.Second; at <= 60*units.Second; at += 100 * units.Millisecond {
		sched.Run(units.Epoch.Add(at))
		minW, maxW := drv.Flows()[0].Sender.Cwnd(), drv.Flows()[0].Sender.Cwnd()
		for _, f := range drv.Flows() {
			minW, maxW = min(minW, f.Sender.Cwnd()), max(maxW, f.Sender.Cwnd())
		}
		ratios = append(ratios, maxW/minW)
	}
	return stats.Percentile(ratios, 50), drv.Flows()
}

// TestSyncAIMDSharedLossEpochs pins the cohort's phase alignment: with
// equal RTTs and simultaneous starts the flows fill the buffer together
// and take their losses together, so every flow retransmits (no
// bystanders) and the windows stay bunched. Exact per-flow lockstep is
// not claimed — which packets a full buffer rejects depends on arrival
// interleaving, so at a single instant the spread can be wide — but over
// 50 s the median spread stays small because every flow rides the same
// loss epochs. The RTTs differ by under a microsecond (10⁻⁵ of the RTT):
// with exactly equal RTTs every flow's events share nanoseconds, and the
// spread measures one order of those ties (1.50), not the cohort (1.08
// on five RTT seeds with offsets up to 10 µs). The same cohort on drawn
// RTTs (50–150 ms) is the negative control: its flows lose apart, and
// the check must reject it.
func TestSyncAIMDSharedLossEpochs(t *testing.T) {
	const bound = 1.25
	spread, flows := cwndSpread(t, 100*units.Millisecond, 100*units.Millisecond+999*units.Nanosecond)
	if len(flows) != 8 {
		t.Fatalf("cohort size %d, want 8", len(flows))
	}
	for i, f := range flows {
		if f.Sender.Stats().SegmentsSent == 0 {
			t.Fatalf("flow %d sent nothing", i)
		}
		if f.Sender.Stats().Retransmits == 0 {
			t.Errorf("flow %d never retransmitted; cohort should take losses together", i)
		}
	}
	if spread > bound {
		t.Errorf("median max/min cwnd %.2f > %.2f: too wide for a phase-aligned cohort", spread, bound)
	}
	control, _ := cwndSpread(t, 50*units.Millisecond, 150*units.Millisecond)
	if control <= 2*bound {
		t.Errorf("drawn-RTT control: median max/min cwnd %.2f <= %.2f; the check cannot tell a desynchronized cohort", control, 2*bound)
	}
	t.Logf("median max/min cwnd: cohort %.2f, drawn-RTT control %.2f", spread, control)
}

// TestSyncAIMDAmplifiesAggregateSwing pins the property the pattern
// exists to produce: relative to the paper's desynchronized cohort —
// drawn RTTs (50–150 ms) and random starts over 5 s — the synchronized
// cohort's aggregate window swings with much larger relative amplitude,
// so the sqrt(n) smoothing is defeated. n = 32 flows share a 10 Mb/s
// bottleneck with a 25-packet buffer; at n = 8 an equal-RTT cohort
// synchronizes whatever its starts, and the contrast is too thin to pin.
func TestSyncAIMDAmplifiesAggregateSwing(t *testing.T) {
	const n = 32
	spec := tcp.Config{SegmentSize: units.DefaultSegment}
	cov := func(lo, hi units.Duration, start func(*topology.Dumbbell)) float64 {
		sched, d := rttDumbbell(n, 25, 10*units.Mbps, lo, hi, sim.NewRNG(3))
		start(d)
		var w stats.Welford
		for at := 10 * units.Second; at <= 30*units.Second; at += 100 * units.Millisecond {
			sched.Run(units.Epoch.Add(at))
			w.Add(d.AggregateWindow())
		}
		return w.CoV()
	}
	sync := cov(100*units.Millisecond, 100*units.Millisecond, func(d *topology.Dumbbell) {
		SyncAIMD{N: n}.Bind(d, sim.NewRNG(1), spec).Start(units.Epoch, units.Never)
	})
	desync := cov(50*units.Millisecond, 150*units.Millisecond, func(d *topology.Dumbbell) {
		workload.StartLongLived(d, n, spec, sim.NewRNG(1), 5*units.Second)
	})
	if sync < 1.5*desync {
		t.Errorf("aggregate-window CoV: synchronized %.4f < 1.5 x desynchronized %.4f; pattern failed to synchronize", sync, desync)
	}
	t.Logf("aggregate-window CoV: synchronized %.4f, desynchronized %.4f (%.2fx)", sync, desync, sync/desync)
}

func TestParkingLotLoadBuild(t *testing.T) {
	sched := sim.NewScheduler()
	rate := 20 * units.Mbps
	hops := 3
	rates := make([]units.BitRate, hops)
	delays := make([]units.Duration, hops)
	buffers := make([]queue.Limit, hops)
	for i := range rates {
		rates[i] = rate
		delays[i] = 5 * units.Millisecond
		buffers[i] = queue.PacketLimit(30)
	}
	p := topology.NewParkingLot(topology.ParkingLotConfig{
		Sched: sched, Rates: rates, Delays: delays, Buffers: buffers,
	})
	load := ParkingLotLoad{Through: 3, PerHop: 2, RTT: 80 * units.Millisecond}
	if load.FlowsPerLink() != 5 {
		t.Fatalf("FlowsPerLink = %d", load.FlowsPerLink())
	}
	through, cross := load.Build(sched, p, tcp.Config{SegmentSize: units.DefaultSegment})
	if len(through) != 3 || len(cross) != 6 {
		t.Fatalf("built %d through, %d cross flows", len(through), len(cross))
	}
	if got := len(p.Flows()); got != 9 {
		t.Fatalf("parking lot has %d flows", got)
	}
	sched.Run(units.Epoch.Add(20 * units.Second))
	for i, l := range p.Links {
		if l.DeliveredPackets() == 0 {
			t.Errorf("core link %d delivered nothing", i)
		}
	}
	for i, f := range through {
		if f.Sender.Stats().SegmentsSent == 0 {
			t.Errorf("through flow %d sent nothing", i)
		}
	}
	// Every link is loaded; with synchronized starts each hop's queue
	// sees congestion, not just a single bottleneck.
	congested := 0
	for _, l := range p.Links {
		if l.Queue().Stats().DroppedPackets > 0 {
			congested++
		}
	}
	if congested == 0 {
		t.Error("no core queue ever dropped: pattern did not congest the chain")
	}
}
