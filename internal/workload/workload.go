// Package workload generates the paper's traffic mixes: sets of long-lived
// flows with staggered starts (§3, §5.1.1), Poisson arrivals of short
// slow-start flows with configurable size distributions (§4, §5.1.2), and
// combinations of the two (§5.1.3 and the Fig. 11 production mix).
package workload

import (
	"fmt"
	"math"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// SizeDist is a flow-length distribution in segments.
type SizeDist interface {
	// Sample draws one flow length (>= 1).
	Sample(rng *sim.RNG) int64
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution for reports.
	String() string
}

// FixedSize is a degenerate distribution: every flow has exactly N
// segments (the paper's Fig. 8 uses fixed-length short flows).
type FixedSize int64

// Sample implements SizeDist.
func (f FixedSize) Sample(*sim.RNG) int64 { return int64(f) }

// Mean implements SizeDist.
func (f FixedSize) Mean() float64 { return float64(f) }

func (f FixedSize) String() string { return fmt.Sprintf("fixed(%d)", int64(f)) }

// GeometricSize draws geometrically distributed flow lengths with the
// given mean — the memoryless baseline mix.
type GeometricSize float64

// Sample implements SizeDist.
func (g GeometricSize) Sample(rng *sim.RNG) int64 { return int64(rng.Geometric(float64(g))) }

// Mean implements SizeDist.
func (g GeometricSize) Mean() float64 { return math.Max(float64(g), 1) }

func (g GeometricSize) String() string { return fmt.Sprintf("geometric(%.1f)", float64(g)) }

// ParetoSize draws bounded-Pareto flow lengths: the heavy-tailed
// distribution of real flow sizes the paper appeals to ("flow lengths
// follow a typically heavy-tailed distribution", §5.1.3).
type ParetoSize struct {
	Shape    float64 // tail index alpha; smaller is heavier
	Min, Max int64   // bounds in segments
}

// Sample implements SizeDist.
func (p ParetoSize) Sample(rng *sim.RNG) int64 {
	v := rng.BoundedPareto(p.Shape, float64(p.Min), float64(p.Max))
	return int64(math.Max(1, math.Round(v)))
}

// Mean implements SizeDist (the analytic truncated-Pareto mean).
func (p ParetoSize) Mean() float64 {
	a := p.Shape
	l, h := float64(p.Min), float64(p.Max)
	if l >= h {
		return l
	}
	norm := 1 - math.Pow(l/h, a)
	if a == 1 {
		return l * math.Log(h/l) / norm
	}
	return a * math.Pow(l, a) / norm * (math.Pow(l, 1-a) - math.Pow(h, 1-a)) / (a - 1)
}

func (p ParetoSize) String() string {
	return fmt.Sprintf("pareto(%.2f,[%d,%d])", p.Shape, p.Min, p.Max)
}

// StartLongLived adds n long-lived flows, one per station (station i gets
// flow i mod stations), with start times drawn uniformly from
// [0, stagger] — the "random (and independent) start times" that
// desynchronize the sawtooths. It returns the flows.
func StartLongLived(d *topology.Dumbbell, n int, spec tcp.Config, rng *sim.RNG, stagger units.Duration) []*topology.Flow {
	if n <= 0 {
		panic(fmt.Sprintf("workload: StartLongLived with n=%d", n))
	}
	spec.TotalSegments = 0
	sched := d.Config().Sched
	flows := make([]*topology.Flow, 0, n)
	for i := 0; i < n; i++ {
		st := d.Station(i % d.NumStations())
		f := d.AddFlow(st, spec)
		flows = append(flows, f)
		at := sched.Now()
		if stagger > 0 {
			at = at.Add(units.Duration(rng.Uniform(0, float64(stagger))))
		}
		// Start through the station's view: the start is shard-classified
		// work, so a sharded run fires it inside the station's window
		// instead of forcing a global barrier per flow.
		st.Sched().PostAt(at, f.Sender, tcp.OpStart, nil)
	}
	return flows
}

// FlowRecord is one completed (or in-flight) short flow.
type FlowRecord struct {
	Size      int64      // segments
	Start     units.Time // first transmission
	Completed units.Time // last segment reached the receiver; units.Never if not yet
}

// Duration returns the flow completion time in the paper's sense (first
// packet sent until last packet received).
func (r FlowRecord) Duration() units.Duration {
	if r.Completed == units.Never {
		return units.Duration(math.MaxInt64)
	}
	return r.Completed.Sub(r.Start)
}

// PoissonSource is the stationary workload (§4): Poisson arrivals of
// finite flows at a fixed offered load.
type PoissonSource struct {
	// Load is the target bottleneck utilization offered by this source
	// (rho); the arrival rate is derived as
	// lambda = rho * C / (E[size] * segment bits).
	Load float64
	// Sizes is the flow-length distribution.
	Sizes SizeDist
	// TCP is the per-flow template; TotalSegments is overwritten per
	// flow. The paper's §4 model assumes short flows respect a modest
	// MaxWindow (12–43).
	TCP tcp.Config
}

func (s PoissonSource) String() string {
	return fmt.Sprintf("poisson(load=%.2f, %s)", s.Load, s.Sizes)
}

// ArrivalRateForLoad returns the flows-per-second Poisson rate that
// offers the given bottleneck load: lambda = rho * C / (E[size] * segment
// bits). A zero segment size means units.DefaultSegment. Time-varying
// profiles use the same conversion so a constant profile at this rate is
// the stationary source, draw for draw.
func ArrivalRateForLoad(load float64, rate units.BitRate, seg units.ByteSize, sizes SizeDist) float64 {
	if seg == 0 {
		seg = units.DefaultSegment
	}
	segsPerSec := load * float64(rate) / float64(seg.Bits())
	return segsPerSec / sizes.Mean()
}

// Bind implements Source: every draw (inter-arrival, size, station) comes
// from rng, in that order.
func (s PoissonSource) Bind(d *topology.Dumbbell, rng *sim.RNG) Driver {
	if d == nil || rng == nil || s.Sizes == nil {
		panic("workload: PoissonSource requires a dumbbell, an RNG and Sizes")
	}
	if s.Load <= 0 || s.Load >= 1 {
		panic(fmt.Sprintf("workload: short-flow load %v out of (0,1)", s.Load))
	}
	lambda := ArrivalRateForLoad(s.Load, d.Config().BottleneckRate, s.TCP.SegmentSize, s.Sizes)
	return &ShortFlows{Launcher: NewLauncher(d), src: s, rng: rng, sched: d.Config().Sched, interMean: 1 / lambda}
}

// ShortFlows is a bound PoissonSource. Each arriving flow takes a
// uniformly random station, runs to completion, and is detached so
// stations can be reused indefinitely.
type ShortFlows struct {
	*Launcher
	src       PoissonSource
	rng       *sim.RNG
	sched     *sim.Scheduler
	interMean float64 // seconds
	running   bool
}

// Start begins Poisson arrivals.
func (g *ShortFlows) Start() {
	if g.running {
		panic("workload: ShortFlows started twice")
	}
	g.running = true
	g.scheduleNext()
}

// Stop halts new arrivals; in-flight flows run to completion.
func (g *ShortFlows) Stop() { g.running = false }

// OnEvent implements sim.Actor: the one event is the next Poisson
// arrival, a typed kernel event, so a short-flow workload allocates per
// flow, never per timer.
func (g *ShortFlows) OnEvent(int32, any) {
	if !g.running {
		return
	}
	g.Arrive(g.rng, g.src.Sizes, g.src.TCP, g.sched.Now())
	g.scheduleNext()
}

func (g *ShortFlows) scheduleNext() {
	wait := units.DurationFromSeconds(g.rng.Exp(g.interMean))
	g.sched.PostAfter(wait, g, 0, nil)
}
