package workload

import (
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// transfers counts the completed transfers of a driver started on the
// whole run.
func transfers(g Driver) int {
	_, n, _ := g.Window()
	return n
}

func TestSessionsCycleTransfers(t *testing.T) {
	s, d, rng := testDumbbell(10, 200, 20*units.Mbps)
	g := SessionSource{
		Sessions:  20,
		Sizes:     GeometricSize(20),
		MeanThink: 500 * units.Millisecond,
		MaxWindow: 43,
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	g.Start(units.Epoch, units.Never)
	s.Run(units.Time(30 * units.Second))
	// 20 sessions cycling ~20-segment files with sub-second pauses must
	// complete many transfers (each session several per second at most;
	// conservatively demand a few per session).
	if n := transfers(g); n < 100 {
		t.Errorf("transfers = %d, want sessions to cycle", n)
	}
	// Active flows stay within the population.
	if g.Active() < 0 || g.Active() > 20 {
		t.Errorf("Active = %d, want [0, 20]", g.Active())
	}
	// Every transfer either completed or is one of the active ones.
	completed := transfers(g)
	if int64(completed+g.Active()) != g.Generated() {
		t.Errorf("completed %d + active %d != generated %d",
			completed, g.Active(), g.Generated())
	}
}

func TestSessionsEquilibriumLoad(t *testing.T) {
	// With long think times the offered load is light; the link should
	// be far from saturated. Sanity check of the think-time control.
	s, d, rng := testDumbbell(10, 200, 20*units.Mbps)
	g := SessionSource{
		Sessions:  5,
		Sizes:     FixedSize(10),
		MeanThink: 5 * units.Second,
		MaxWindow: 43,
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	g.Start(units.Epoch, units.Never)
	warm := units.Time(5 * units.Second)
	s.Run(warm)
	busy := d.Bottleneck.BusyTime()
	s.Run(units.Time(30 * units.Second))
	util := d.Bottleneck.Utilization(busy, warm)
	if util > 0.2 {
		t.Errorf("light session load utilization = %v, want < 0.2", util)
	}
	if transfers(g) == 0 {
		t.Error("no transfers completed")
	}
}

func TestSessionsStopHalts(t *testing.T) {
	s, d, rng := testDumbbell(4, 100, 10*units.Mbps)
	g := SessionSource{
		Sessions:  4,
		Sizes:     FixedSize(5),
		MeanThink: 100 * units.Millisecond,
	}.Bind(d, rng.Fork(), tcp.Config{SegmentSize: 1000})
	g.Start(units.Epoch, units.Never)
	s.Run(units.Time(5 * units.Second))
	g.Stop()
	s.Run(units.Time(10 * units.Second)) // drain
	n := transfers(g)
	s.Run(units.Time(20 * units.Second))
	if transfers(g) != n || g.Generated() != int64(n) {
		t.Error("sessions kept transferring after Stop")
	}
	if g.Active() != 0 {
		t.Errorf("Active = %d after stop+drain", g.Active())
	}
}

func TestSessionsValidation(t *testing.T) {
	_, d, rng := testDumbbell(2, 10, units.Mbps)
	mustPanic := func(name string, src SessionSource, d *topology.Dumbbell) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		src.Bind(d, rng, tcp.Config{})
	}
	mustPanic("nil dumbbell", SessionSource{Sizes: FixedSize(1), Sessions: 1}, nil)
	mustPanic("zero sessions", SessionSource{Sizes: FixedSize(1)}, d)
	mustPanic("nil sizes", SessionSource{Sessions: 1}, d)

	g := SessionSource{Sizes: FixedSize(1), Sessions: 1}.Bind(d, rng, tcp.Config{})
	g.Start(units.Epoch, units.Never)
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	g.Start(units.Epoch, units.Never)
}
