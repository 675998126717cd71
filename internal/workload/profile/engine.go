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
	// TCP is the short-flow template; TotalSegments is set per flow.
	TCP tcp.Config
	// LongTCP is the long-lived flow template; TotalSegments is forced
	// to zero (unbounded).
	LongTCP tcp.Config
}

func (s Source) String() string {
	return fmt.Sprintf("profile(%s)", s.Profile.Name)
}

// Bind implements workload.Source. The profile must already be valid —
// Bind is on the hot path of cached sweeps and panics on a defect the
// API boundary should have reported (see Profile.Validate).
func (s Source) Bind(d *topology.Dumbbell, rng *sim.RNG) workload.Driver {
	if err := s.Profile.Validate(); err != nil {
		panic(err)
	}
	if s.Profile.Arrival.Max() > 0 && s.Sizes == nil {
		panic("profile: Source with an arrival curve requires Sizes")
	}
	return &engine{
		Launcher: workload.NewLauncher(d),
		src:      s,
		d:        d,
		rng:      rng,
		sched:    d.Config().Sched,
	}
}

// engine event opcodes (see sim.Actor).
const (
	// opArrival: the next thinning candidate is due.
	opArrival int32 = iota
	// opAddLong: the population curve crossed up; start a long flow.
	opAddLong
	// opDropLong: the population curve crossed down; stop one.
	opDropLong
)

// engine is the bound driver: one actor owning every scheduled decision
// the profile implies. Its short flows are the embedded Launcher's, and
// so are Records and Generated.
type engine struct {
	*workload.Launcher
	src   Source
	d     *topology.Dumbbell
	rng   *sim.RNG
	sched *sim.Scheduler

	base    units.Time // simulated time of Start
	maxRate float64    // arrival curve maximum, the thinning envelope
	running bool

	long       []*topology.Flow // live long-lived flows, newest last
	longCursor int              // round-robin station assignment
}

// Start implements workload.Driver: it anchors the profile at the
// current simulated time, compiles the population curve into scheduled
// start/stop events, and begins the thinned arrival process.
func (e *engine) Start() {
	if e.running {
		panic("profile: engine started twice")
	}
	e.running = true
	e.base = e.sched.Now()

	initial, changes := compilePopulation(e.src.Profile.Population)
	for i := 0; i < initial; i++ {
		e.addLong()
	}
	for _, ch := range changes {
		op := opAddLong
		if ch.delta < 0 {
			op = opDropLong
		}
		e.sched.PostAt(e.base.Add(ch.at), e, op, nil)
	}

	if e.maxRate = e.src.Profile.Arrival.Max(); e.maxRate > 0 {
		e.scheduleNext()
	}
}

// Stop implements workload.Driver: no new short flows launch and the
// population stops changing; in-flight transfers run to completion.
func (e *engine) Stop() { e.running = false }

// Active implements workload.Driver: in-flight short flows plus live
// long-lived flows — the instantaneous n(t).
func (e *engine) Active() int { return e.Launcher.Active() + len(e.long) }

// OnEvent implements sim.Actor.
func (e *engine) OnEvent(op int32, _ any) {
	switch op {
	case opArrival:
		if !e.running {
			return
		}
		// Thinning: candidates arrive at the envelope rate and are
		// accepted with probability rate(t)/maxRate. When the curve
		// sits at its maximum the acceptance is certain and the draw is
		// skipped — that skip is what keeps a constant profile's RNG
		// stream identical to the stationary source's.
		rate := e.src.Profile.Arrival.At(e.sched.Now().Sub(e.base))
		if rate >= e.maxRate || e.rng.Uniform(0, e.maxRate) < rate {
			// The stationary source's arrival path, draw for draw.
			e.Arrive(e.rng, e.src.Sizes, e.src.TCP, e.sched.Now())
		}
		e.scheduleNext()
	case opAddLong:
		if e.running {
			e.addLong()
		}
	case opDropLong:
		if e.running {
			e.dropLong()
		}
	}
}

func (e *engine) scheduleNext() {
	wait := units.DurationFromSeconds(e.rng.Exp(1 / e.maxRate))
	e.sched.PostAfter(wait, e, opArrival, nil)
}

// addLong starts one long-lived flow, assigning stations round-robin.
// Starts are not randomly staggered — the schedule is compiled, not
// drawn — so desynchronization comes from the topology's RTT spread.
func (e *engine) addLong() {
	spec := e.src.LongTCP
	spec.TotalSegments = 0
	st := e.d.Station(e.longCursor % e.d.NumStations())
	e.longCursor++
	f := e.d.AddFlow(st, spec)
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
	// the hosts, as the short-flow teardown does.
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
