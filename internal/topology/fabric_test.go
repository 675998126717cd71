package topology

import (
	"runtime"
	"testing"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// fabricPlaneTemplate is the per-plane shape shared by the fabric test
// and its standalone control runs.
var fabricPlaneTemplate = Config{
	BottleneckRate:  10 * units.Mbps,
	BottleneckDelay: 10 * units.Millisecond,
	Buffer:          queue.PacketLimit(60),
	Stations:        6,
	RTTMin:          80 * units.Millisecond,
	RTTMax:          160 * units.Millisecond,
}

// startFabricFlows gives every station one long-lived flow and starts it.
func startFabricFlows(d *Dumbbell) []*Flow {
	flows := make([]*Flow, 0, d.NumStations())
	for i := 0; i < d.NumStations(); i++ {
		f := d.AddFlow(d.Station(i), tcp.Config{SegmentSize: 1000})
		f.Sender.Start()
		flows = append(flows, f)
	}
	return flows
}

// planeSignature summarizes a plane's end state precisely enough that a
// single reordered packet changes it.
type planeSignature struct {
	stats queue.Stats
	busy  units.Duration
	cwnds []float64
}

func signature(d *Dumbbell, flows []*Flow) planeSignature {
	sig := planeSignature{
		stats: d.Bottleneck.Queue().Stats(),
		busy:  d.Bottleneck.BusyTime(),
	}
	for _, f := range flows {
		sig.cwnds = append(sig.cwnds, f.Sender.Cwnd())
	}
	return sig
}

// TestFabricMatchesStandalonePlanes pins the fabric's determinism
// contract: plane k of an n-plane fabric must finish in exactly the
// state of a standalone dumbbell built from the same RNG fork and run
// on its own scheduler. The fabric runs its planes concurrently; that
// must not leak a single event between them.
func TestFabricMatchesStandalonePlanes(t *testing.T) {
	const planes = 4
	const seed = 99
	horizon := units.Time(30 * units.Second)

	// Control: each plane standalone, consuming the fork sequence a
	// fabric would hand it.
	want := make([]planeSignature, planes)
	parent := sim.NewRNG(seed)
	for k := 0; k < planes; k++ {
		sched := sim.NewScheduler()
		pc := fabricPlaneTemplate
		pc.Sched = sched
		pc.RNG = parent.Fork()
		d := NewDumbbell(pc)
		flows := startFabricFlows(d)
		sched.Run(horizon)
		want[k] = signature(d, flows)
	}

	// The fabric: same planes, run in parallel.
	f := NewFabric(FabricConfig{
		RNG:    sim.NewRNG(seed),
		Planes: planes,
		Plane:  fabricPlaneTemplate,
	})
	flows := make([][]*Flow, planes)
	for k := 0; k < planes; k++ {
		flows[k] = startFabricFlows(f.Plane(k))
	}
	f.Run(horizon)

	for k := 0; k < planes; k++ {
		got := signature(f.Plane(k), flows[k])
		if got.stats != want[k].stats {
			t.Errorf("plane %d queue stats = %+v, want %+v", k, got.stats, want[k].stats)
		}
		if got.busy != want[k].busy {
			t.Errorf("plane %d busy time = %v, want %v", k, got.busy, want[k].busy)
		}
		for i := range got.cwnds {
			if got.cwnds[i] != want[k].cwnds[i] {
				t.Errorf("plane %d flow %d cwnd = %v, want %v", k, i, got.cwnds[i], want[k].cwnds[i])
			}
		}
	}
}

// TestFabricMorePlanesThanShards runs a fabric with more planes than
// GOMAXPROCS, so the per-plane goroutines outnumber the processors that
// can run them at once: every plane must still finish the run having
// carried traffic.
func TestFabricMorePlanesThanShards(t *testing.T) {
	pc := fabricPlaneTemplate
	pc.Stations = 2
	f := NewFabric(FabricConfig{
		RNG:    sim.NewRNG(5),
		Planes: runtime.GOMAXPROCS(0) + 1,
		Plane:  pc,
	})
	for k := 0; k < f.Planes(); k++ {
		startFabricFlows(f.Plane(k))
	}
	f.Run(units.Time(5 * units.Second))
	for k := 0; k < f.Planes(); k++ {
		if util := f.Plane(k).Bottleneck.Utilization(0, units.Epoch); util <= 0 {
			t.Errorf("plane %d never carried traffic (utilization %v)", k, util)
		}
	}
}
