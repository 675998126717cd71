package workload

import (
	"math"
	"testing"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

func testDumbbell(stations int, bufferPkts int, rate units.BitRate) (*sim.Scheduler, *topology.Dumbbell, *sim.RNG) {
	s := sim.NewScheduler()
	rng := sim.NewRNG(42)
	d := topology.NewDumbbell(topology.Config{
		Sched:           s,
		RNG:             rng.Fork(),
		BottleneckRate:  rate,
		BottleneckDelay: 5 * units.Millisecond,
		Buffer:          queue.PacketLimit(bufferPkts),
		Stations:        stations,
		RTTMin:          40 * units.Millisecond,
		RTTMax:          120 * units.Millisecond,
	})
	return s, d, rng
}

func TestFixedSize(t *testing.T) {
	d := FixedSize(14)
	if d.Sample(nil) != 14 || d.Mean() != 14 {
		t.Error("FixedSize wrong")
	}
	if d.String() != "fixed(14)" {
		t.Errorf("String = %q", d.String())
	}
}

func TestGeometricSizeMean(t *testing.T) {
	rng := sim.NewRNG(1)
	d := GeometricSize(14)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 1 {
			t.Fatalf("sample %d < 1", v)
		}
		sum += float64(v)
	}
	if got := sum / n; math.Abs(got-14) > 0.5 {
		t.Errorf("empirical mean = %v, want 14", got)
	}
}

func TestParetoSizeMeanMatchesAnalytic(t *testing.T) {
	rng := sim.NewRNG(2)
	d := ParetoSize{Shape: 1.2, Min: 2, Max: 10000}
	sum := 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		v := d.Sample(rng)
		if v < 1 || v > 10000 {
			t.Fatalf("sample %d out of bounds", v)
		}
		sum += float64(v)
	}
	emp := sum / n
	ana := d.Mean()
	if math.Abs(emp-ana)/ana > 0.1 {
		t.Errorf("empirical mean %v vs analytic %v", emp, ana)
	}
	// Degenerate and alpha=1 paths.
	if got := (ParetoSize{Shape: 1.5, Min: 5, Max: 5}).Mean(); got != 5 {
		t.Errorf("degenerate mean = %v", got)
	}
	one := ParetoSize{Shape: 1, Min: 2, Max: 200}
	if m := one.Mean(); m < 2 || m > 200 {
		t.Errorf("alpha=1 mean = %v out of range", m)
	}
}

func TestStartLongLivedStaggersStarts(t *testing.T) {
	s, d, rng := testDumbbell(20, 100, 10*units.Mbps)
	flows := StartLongLived(d, 20, tcp.Config{SegmentSize: 1000}, rng, 2*units.Second)
	if len(flows) != 20 {
		t.Fatalf("got %d flows", len(flows))
	}
	s.Run(units.Time(5 * units.Second))
	var starts []units.Time
	for _, f := range flows {
		st := f.Sender.Stats()
		if st.Started == 0 && f.Station.Index != 0 {
			// Stagger should spread almost all starts away from 0.
			continue
		}
		starts = append(starts, st.Started)
	}
	var early, late int
	for _, f := range flows {
		if f.Sender.Stats().Started < units.Time(units.Second) {
			early++
		} else {
			late++
		}
	}
	if early == 0 || late == 0 {
		t.Errorf("starts not staggered: %d early, %d late", early, late)
	}
}

func TestLongLivedFillLink(t *testing.T) {
	s, d, rng := testDumbbell(10, 80, 10*units.Mbps)
	StartLongLived(d, 10, tcp.Config{SegmentSize: 1000}, rng, units.Second)
	warm := units.Time(8 * units.Second)
	s.Run(warm)
	busy := d.Bottleneck.BusyTime()
	s.Run(warm + units.Time(15*units.Second))
	if util := d.Bottleneck.Utilization(busy, warm); util < 0.9 {
		t.Errorf("long-lived utilization = %v", util)
	}
}

func TestShortFlowsPoissonLoad(t *testing.T) {
	// Offered load 0.5 on a 20 Mb/s link with 14-segment flows: the link
	// should carry roughly 0.5 utilization and flows should complete.
	s, d, rng := testDumbbell(30, 200, 20*units.Mbps)
	g := PoissonSource{
		Load:      0.5,
		Sizes:     FixedSize(14),
		MaxWindow: 43,
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	// lambda = 0.5 * 20e6 / 8000 / 14 = 89.3 flows/s.
	if r := g.(*Arrivals).peak; math.Abs(r-89.28) > 0.5 {
		t.Errorf("arrival rate = %v, want ~89.3", r)
	}
	warm := units.Time(5 * units.Second)
	g.Start(warm, warm+units.Time(20*units.Second))
	s.Run(warm)
	busy := d.Bottleneck.BusyTime()
	s.Run(warm + units.Time(20*units.Second))
	util := d.Bottleneck.Utilization(busy, warm)
	// ACK-path overhead is excluded; data plus retransmissions should put
	// utilization near the offered load.
	if util < 0.4 || util > 0.62 {
		t.Errorf("offered 0.5, measured %v", util)
	}
	g.Stop()
	s.Run(s.Now() + units.Time(10*units.Second)) // drain
	afct, completed, censored := g.Window()
	if completed < 1000 {
		t.Fatalf("only %d flows completed", completed)
	}
	if censored > completed/100 {
		t.Errorf("%d censored flows after drain (completed %d)", censored, completed)
	}
	// 14 segments in slow start over ~80 ms mean RTT: bursts 2,4,8 need
	// ~3 RTTs plus transmission; AFCT should land in the few-hundred-ms
	// range with ample buffers.
	if afct < 100*units.Millisecond || afct > 600*units.Millisecond {
		t.Errorf("AFCT = %v, want a few hundred ms", afct)
	}
	if g.Active() != 0 && censored == 0 {
		t.Errorf("Active = %d after drain", g.Active())
	}
}

func TestShortFlowsStationsReused(t *testing.T) {
	s, d, rng := testDumbbell(5, 100, 10*units.Mbps)
	g := PoissonSource{
		Load:  0.3,
		Sizes: FixedSize(5),
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	g.Start(units.Epoch, units.Never)
	s.Run(units.Time(30 * units.Second))
	// 5 stations, ~75 flows/s for 30 s: thousands of flows over 5
	// stations proves reuse works.
	if g.Generated() < 500 {
		t.Errorf("Generated = %d, want many flows on few stations", g.Generated())
	}
}

// TestAFCTWindowFiltering: with the window [9s, 20s], a flow launched at
// 0 does not count, the flow at 10s counts with its observed completion
// time, and the one at 11s, still in flight, counts as open. A window
// that no flow launches in counts nothing.
func TestAFCTWindowFiltering(t *testing.T) {
	at := func(d units.Duration) units.Time { return units.Epoch.Add(d) }
	specs := []FlowSpec{
		{Start: 0, Size: 10},
		{Start: 10 * units.Second, Size: 20},
		{Start: 11 * units.Second, Size: 1_000_000},
	}
	flows, drv := runTraceWindow(t, specs, at(9*units.Second), at(20*units.Second), at(20*units.Second))
	afct, completed, open := drv.Window()
	if completed != 1 || open != 1 {
		t.Errorf("completed=%d open=%d", completed, open)
	}
	if want := flows[1].done.Sub(flows[1].start); flows[1].done == units.Never || afct != want {
		t.Errorf("AFCT = %v, want %v", afct, want)
	}
	// Empty window.
	_, drv = runTraceWindow(t, specs, at(100*units.Second), at(200*units.Second), at(20*units.Second))
	if a, c, o := drv.Window(); a != 0 || c != 0 || o != 0 {
		t.Errorf("empty window AFCT = %v/%d/%d", a, c, o)
	}
}

// TestFlowRecordDuration: a completed flow's completion time is its
// receiver's completion less its launch, exactly; a flow still in flight
// adds no time and counts as open.
func TestFlowRecordDuration(t *testing.T) {
	at := func(d units.Duration) units.Time { return units.Epoch.Add(d) }
	flows, drv := runTraceWindow(t, []FlowSpec{{Start: units.Second, Size: 10}}, at(units.Second), at(units.Second), at(3*units.Second))
	if flows[0].done == units.Never {
		t.Fatal("the flow never completed")
	}
	if afct, completed, _ := drv.Window(); completed != 1 || afct != flows[0].done.Sub(at(units.Second)) {
		t.Errorf("Window = %v over %d, want %v over 1", afct, completed, flows[0].done.Sub(at(units.Second)))
	}
	_, drv = runTraceWindow(t, []FlowSpec{{Start: 0, Size: 1_000_000}}, at(0), at(0), at(units.Second))
	if afct, completed, open := drv.Window(); afct != 0 || completed != 0 || open != 1 {
		t.Errorf("in-flight flow: Window = %v, %d, %d; want 0, 0, 1", afct, completed, open)
	}
}

func TestConfigValidation(t *testing.T) {
	s, d, rng := testDumbbell(2, 10, units.Mbps)
	_ = s
	mustPanic := func(name string, src PoissonSource, d *topology.Dumbbell) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		src.Bind(d, rng, tcp.Config{})
	}
	mustPanic("nil dumbbell", PoissonSource{Sizes: FixedSize(1), Load: 0.5}, nil)
	mustPanic("bad load", PoissonSource{Sizes: FixedSize(1), Load: 1.5}, d)
	mustPanic("nil sizes", PoissonSource{Load: 0.5}, d)

	mustPanicN := func(name string, n int) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		StartLongLived(d, n, tcp.Config{}, rng, 0)
	}
	mustPanicN("zero long flows", 0)
}

func TestRawFlowBindOneWay(t *testing.T) {
	// NewRawFlow must allocate distinct flow IDs and hand out the
	// station's forward path (the pulse trains use exactly this).
	s, d, _ := testDumbbell(1, 100, 10*units.Mbps)
	_ = s
	f1 := d.NewRawFlow(d.Station(0))
	f2 := d.NewRawFlow(d.Station(0))
	if f1.ID == f2.ID {
		t.Error("raw flows share an ID")
	}
	if f1.Forward == nil {
		t.Errorf("raw flow not fully populated: %+v", f1)
	}
}
