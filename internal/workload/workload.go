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
		st.Sched().PostAt(at, f.Sender, tcp.OpStart, nil)
	}
	return flows
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
	// MaxWindow caps each flow's window in segments (0: uncapped). The
	// paper's §4 model assumes short flows respect a modest cap (12–43).
	MaxWindow int
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

// Bind implements Source: arrivals at the constant rate the load implies
// (see Arrivals for the order of the draws).
func (s PoissonSource) Bind(d *topology.Dumbbell, rng *sim.RNG, spec tcp.Config) Driver {
	if d == nil || rng == nil || s.Sizes == nil {
		panic("workload: PoissonSource requires a dumbbell, an RNG and Sizes")
	}
	if s.Load <= 0 || s.Load >= 1 {
		panic(fmt.Sprintf("workload: short-flow load %v out of (0,1)", s.Load))
	}
	lambda := ArrivalRateForLoad(s.Load, d.Config().BottleneckRate, spec.SegmentSize, s.Sizes)
	spec.MaxWindow = s.MaxWindow
	return NewArrivals(d, rng, s.Sizes, spec, func(units.Duration) float64 { return lambda }, lambda)
}

// Arrivals is the one Poisson arrival process of short flows, stationary
// (PoissonSource) or following a rate curve (the profile engine).
// Candidates arrive at the envelope rate and are accepted with probability
// rate(t)/envelope (thinning); where the rate is at the envelope the
// acceptance is certain and its draw is skipped, so a constant rate draws
// inter-arrival, size, station, inter-arrival, ... and nothing else. Each
// flow takes a uniformly random station, runs to completion, and is
// detached so stations can be reused indefinitely.
type Arrivals struct {
	*Launcher
	rng     *sim.RNG
	sched   *sim.Scheduler
	sizes   SizeDist
	rate    func(units.Duration) float64 // flows/s at an offset from Start
	peak    float64                      // the envelope: rate's maximum
	base    units.Time                   // simulated time of Start
	running bool
}

// NewArrivals returns stopped arrivals of flows sized by sizes on spec
// across d, at rate(t) flows per second t after Start, where
// rate never exceeds peak. A zero peak never arrives, and then sizes may
// be nil.
func NewArrivals(d *topology.Dumbbell, rng *sim.RNG, sizes SizeDist, spec tcp.Config, rate func(units.Duration) float64, peak float64) *Arrivals {
	return &Arrivals{Launcher: &Launcher{d: d, spec: spec}, rng: rng, sched: d.Config().Sched, sizes: sizes, rate: rate, peak: peak}
}

// Start begins arrivals, counting those in [from, to].
func (a *Arrivals) Start(from, to units.Time) {
	if a.running {
		panic("workload: arrivals started twice")
	}
	a.running = true
	a.from, a.to = from, to
	a.base = a.sched.Now()
	if a.peak > 0 {
		a.scheduleNext()
	}
}

// Stop halts new arrivals; in-flight flows run to completion.
func (a *Arrivals) Stop() { a.running = false }

// OnEvent implements sim.Actor: the one event is the next candidate, a
// typed kernel event, so a short-flow workload allocates per flow, never
// per timer.
func (a *Arrivals) OnEvent(int32, any) {
	if !a.running {
		return
	}
	now := a.sched.Now()
	if rate := a.rate(now.Sub(a.base)); rate >= a.peak || a.rng.Uniform(0, a.peak) < rate {
		size := a.sizes.Sample(a.rng)
		a.launch(a.d.Station(a.rng.Intn(a.d.NumStations())), size, now)
	}
	a.scheduleNext()
}

func (a *Arrivals) scheduleNext() {
	wait := units.DurationFromSeconds(a.rng.Exp(1 / a.peak))
	a.sched.PostAfter(wait, a, 0, nil)
}
