package profile

import (
	"fmt"
	"math"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// Source drives a dumbbell with the time-varying traffic a Profile
// describes: short flows arrive as a non-homogeneous Poisson process
// following the arrival curve (thinning against the curve's maximum),
// and long-lived flows start and stop so the live count tracks
// round(n(t)) along the population curve.
//
// Determinism contract: the schedule is a pure function of (profile,
// seed). Population changes are compiled to event times with no RNG
// draws at all, and the thinning loop skips the acceptance draw
// whenever the curve sits at its maximum — so a constant profile
// consumes the bound RNG in exactly the stationary Poisson source's
// order (inter-arrival, size, station, ...) and reproduces it bit for
// bit.
type Source struct {
	// Profile is the shape to drive; it must be valid (see
	// Profile.Validate) with absolute units — flows/sec and flow
	// counts, not normalized peaks.
	Profile Profile
	// Sizes is the short-flow length distribution; required when the
	// arrival curve is anywhere positive.
	Sizes workload.SizeDist
	// MaxWindow caps each short flow's window in segments (0: uncapped);
	// long-lived flows run uncapped.
	MaxWindow int
}

func (s Source) String() string {
	return fmt.Sprintf("profile(%s)", s.Profile.Name)
}

// Bind implements workload.Source. The profile must already be valid —
// Bind is on the hot path of cached sweeps and panics on a defect the
// API boundary should have reported (see Profile.Validate).
func (s Source) Bind(d *topology.Dumbbell, rng *sim.RNG, spec tcp.Config) workload.Driver {
	if err := s.Profile.Validate(); err != nil {
		panic(err)
	}
	if s.Profile.Arrival.Max() > 0 && s.Sizes == nil {
		panic("profile: Source with an arrival curve requires Sizes")
	}
	short := spec
	short.MaxWindow = s.MaxWindow
	spec.MaxWindow, spec.TotalSegments = 0, 0
	return &engine{
		Arrivals:   workload.NewArrivals(d, rng, s.Sizes, short, s.Profile.Arrival.At, s.Profile.Arrival.Max()),
		population: s.Profile.Population,
		longSpec:   spec,
		d:          d,
		sched:      d.Config().Sched,
	}
}

// engine event opcodes (see sim.Actor): the population curve crossed up
// (start a long flow) or down (stop one).
const (
	opAddLong int32 = iota
	opDropLong
)

// engine is the bound driver: the short-flow arrivals, whose Launcher
// also holds Generated and Window, plus one actor owning the population
// events the profile implies.
type engine struct {
	*workload.Arrivals
	population Curve
	longSpec   tcp.Config // the long-lived flows': uncapped and unbounded
	d          *topology.Dumbbell
	sched      *sim.Scheduler
	running    bool

	long       []*topology.Flow // live long-lived flows, newest last
	longCursor int              // round-robin station assignment
}

// Start implements workload.Driver: it anchors the profile at the
// current simulated time, compiles the population curve into scheduled
// start/stop events, and then begins the thinned arrival process, whose
// short flows in [from, to] Window counts.
func (e *engine) Start(from, to units.Time) {
	if e.running {
		panic("profile: engine started twice")
	}
	e.running = true
	base := e.sched.Now()

	initial, changes := compilePopulation(e.population)
	for i := 0; i < initial; i++ {
		e.addLong()
	}
	for _, ch := range changes {
		op := opAddLong
		if ch.delta < 0 {
			op = opDropLong
		}
		e.sched.PostAt(base.Add(ch.at), e, op, nil)
	}
	e.Arrivals.Start(from, to)
}

// Stop implements workload.Driver: no new short flows launch and the
// population stops changing; in-flight transfers run to completion.
func (e *engine) Stop() {
	e.running = false
	e.Arrivals.Stop()
}

// Active implements workload.Driver: in-flight short flows plus live
// long-lived flows — the instantaneous n(t).
func (e *engine) Active() int { return e.Arrivals.Active() + len(e.long) }

// OnEvent implements sim.Actor.
func (e *engine) OnEvent(op int32, _ any) {
	if !e.running {
		return
	}
	switch op {
	case opAddLong:
		e.addLong()
	case opDropLong:
		e.dropLong()
	}
}

// addLong starts one long-lived flow, assigning stations round-robin.
// Starts are not randomly staggered — the schedule is compiled, not
// drawn — so desynchronization comes from the topology's RTT spread.
func (e *engine) addLong() {
	st := e.d.Station(e.longCursor % e.d.NumStations())
	e.longCursor++
	f := e.d.AddFlow(st, e.longSpec)
	e.long = append(e.long, f)
	f.Sender.Start()
}

// dropLong stops the most recently started long-lived flow (LIFO, so a
// ramp up and back down returns to the original population).
func (e *engine) dropLong() {
	if len(e.long) == 0 {
		return
	}
	f := e.long[len(e.long)-1]
	e.long = e.long[:len(e.long)-1]
	f.Sender.Shutdown(e.sched.Now())
	// Let in-flight packets drain past the bottleneck before unwiring
	// the flow, as the short-flow teardown does.
	e.Detach(f)
}

// popChange is one compiled population step: at offset at from the
// profile start, the live flow count moves by delta (always ±1).
type popChange struct {
	at    units.Duration
	delta int
}

// compilePopulation turns the population curve into its initial flow
// count plus the time-ordered unit steps of round(n(t)) — a pure
// function of the curve, with no randomness, so the schedule is
// identical across seeds and runs.
func compilePopulation(c Curve) (initial int, changes []popChange) {
	if len(c) == 0 {
		return 0, nil
	}
	cur := int(math.Round(c[0].V))
	initial = cur
	for i := 1; i < len(c); i++ {
		lo, hi := c[i-1], c[i]
		target := int(math.Round(hi.V))
		if target == cur {
			continue
		}
		slope := (hi.V - lo.V) / float64(hi.T-lo.T)
		for cur < target {
			// round(v) first reaches cur+1 where v crosses cur+0.5.
			t := lo.T + units.Duration((float64(cur)+0.5-lo.V)/slope)
			changes = append(changes, popChange{at: clampOffset(t, lo.T, hi.T), delta: +1})
			cur++
		}
		for cur > target {
			// round(v) first drops to cur-1 where v crosses cur-0.5.
			t := lo.T + units.Duration((float64(cur)-0.5-lo.V)/slope)
			changes = append(changes, popChange{at: clampOffset(t, lo.T, hi.T), delta: -1})
			cur--
		}
	}
	return initial, changes
}

// clampOffset guards against floating-point drift pushing a crossing
// just outside its segment.
func clampOffset(t, lo, hi units.Duration) units.Duration {
	if t < lo {
		return lo
	}
	if t > hi {
		return hi
	}
	return t
}
