// Package profile describes time-varying traffic declaratively: a
// piecewise-linear arrival-rate curve and a piecewise-linear long-lived
// flow-count curve, compiled into a deterministic per-seed schedule
// against the simulation kernel. The paper's buffer rule B = RTT·C/√n
// is a statement about n — this package is how n(t) stops being a
// constant: flash crowds, diurnal swings, stepped ramps and maintenance
// drains are all a handful of control points.
//
// Profiles are pure data (digestable by the run cache) and compose:
// curves can be scaled, summed and time-compressed, so a 24-hour
// diurnal shape replays in 60 simulated seconds.
package profile

import (
	"fmt"
	"math"

	"bufsim/internal/units"
)

// Point is one control point of a piecewise-linear curve: the value V
// holds at offset T from the profile's start. Between control points
// the curve interpolates linearly; before the first and after the last
// it clamps to the nearest point's value.
type Point struct {
	// T is the offset from the profile's start.
	T units.Duration
	// V is the curve value at T — flows per second for an arrival
	// curve, a flow count for a population curve.
	V float64
}

// Curve is a piecewise-linear function of time, given as control points
// in strictly increasing time order. An empty curve is identically
// zero.
type Curve []Point

// At evaluates the curve at offset t, clamping outside the control
// range.
func (c Curve) At(t units.Duration) float64 {
	if len(c) == 0 {
		return 0
	}
	if t <= c[0].T {
		return c[0].V
	}
	last := c[len(c)-1]
	if t >= last.T {
		return last.V
	}
	// Linear scan: control-point counts are small (a handful to a few
	// dozen) and the engine evaluates on arrivals, not per packet.
	for i := 1; i < len(c); i++ {
		if t <= c[i].T {
			lo, hi := c[i-1], c[i]
			frac := float64(t-lo.T) / float64(hi.T-lo.T)
			return lo.V + frac*(hi.V-lo.V)
		}
	}
	return last.V
}

// Max returns the curve's maximum value (zero for an empty curve). A
// piecewise-linear curve attains its maximum at a control point.
func (c Curve) Max() float64 {
	m := 0.0
	for _, p := range c {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// End returns the offset of the last control point, after which the
// curve is constant.
func (c Curve) End() units.Duration {
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1].T
}

// validate reports the first defect in the curve: negative offsets,
// non-finite or negative values, or control points out of order. Equal
// adjacent times are rejected explicitly — a zero-duration segment is
// almost always a typo for a step, which is written as two points a
// short transition apart.
func (c Curve) validate(name string) error {
	for i, p := range c {
		if p.T < 0 {
			return fmt.Errorf("profile: %s point %d: negative time offset %s", name, i, p.T)
		}
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			return fmt.Errorf("profile: %s point %d: value must be finite, got %v", name, i, p.V)
		}
		if p.V < 0 {
			return fmt.Errorf("profile: %s point %d: negative value %v (rates and flow counts cannot go below zero)", name, i, p.V)
		}
		if i == 0 {
			continue
		}
		switch prev := c[i-1]; {
		case p.T == prev.T:
			return fmt.Errorf("profile: %s point %d: zero-duration segment at t=%s (write a step as two points a short transition apart)", name, i, p.T)
		case p.T < prev.T:
			return fmt.Errorf("profile: %s point %d: time %s precedes point %d (%s); control points must be in increasing time order", name, i, p.T, i-1, prev.T)
		}
	}
	return nil
}

func (c Curve) scale(f float64) Curve {
	out := make(Curve, len(c))
	for i, p := range c {
		out[i] = Point{T: p.T, V: p.V * f}
	}
	return out
}

func (c Curve) compress(name string, factor float64) (Curve, error) {
	out := make(Curve, len(c))
	for i, p := range c {
		t := float64(p.T) / factor
		if !(t >= math.MinInt64 && t < math.MaxInt64) { // also NaN
			return nil, fmt.Errorf("profile: %s point %d: compressing t=%s by %v leaves the representable time range", name, i, p.T, factor)
		}
		out[i] = Point{T: units.Duration(t), V: p.V}
	}
	return out, nil
}

// Profile is a declarative time-varying workload: what the short-flow
// arrival rate and the long-lived flow population do over time.
type Profile struct {
	// Name labels the profile in reports and cache keys.
	Name string
	// Arrival is the short-flow arrival rate over time, in flows per
	// second. Empty means no short flows.
	Arrival Curve
	// Population is the long-lived flow count over time; the engine
	// tracks round(n(t)) with scheduled flow starts and stops. Empty
	// means no long-lived flows.
	Population Curve
}

// Validate reports the first defect in either curve, or that the
// profile describes no traffic at all.
func (p Profile) Validate() error {
	if err := p.Arrival.validate("arrival"); err != nil {
		return err
	}
	if err := p.Population.validate("population"); err != nil {
		return err
	}
	if p.Arrival.Max() == 0 && p.Population.Max() == 0 {
		return fmt.Errorf("profile: %q describes no traffic (arrival and population are both everywhere zero)", p.Name)
	}
	return nil
}

// Duration returns the time of the last control point across both
// curves; the profile is constant afterwards.
func (p Profile) Duration() units.Duration {
	if a, b := p.Arrival.End(), p.Population.End(); a > b {
		return a
	}
	return p.Population.End()
}

// ScaleArrival multiplies the arrival curve by f.
func (p Profile) ScaleArrival(f float64) Profile {
	p.Arrival = p.Arrival.scale(f)
	return p
}

// ScalePopulation multiplies the population curve by f.
func (p Profile) ScalePopulation(f float64) Profile {
	p.Population = p.Population.scale(f)
	return p
}

// ScaleTo rescales the profile as a shape: the arrival curve's peak
// becomes peakArrival flows/sec and the population curve's peak becomes
// peakPopulation flows. A curve that is empty or everywhere zero is
// left alone; a zero target removes that curve entirely.
func (p Profile) ScaleTo(peakArrival, peakPopulation float64) Profile {
	if m := p.Arrival.Max(); m > 0 {
		if peakArrival > 0 {
			p = p.ScaleArrival(peakArrival / m)
		} else {
			p.Arrival = nil
		}
	}
	if m := p.Population.Max(); m > 0 {
		if peakPopulation > 0 {
			p = p.ScalePopulation(peakPopulation / m)
		} else {
			p.Population = nil
		}
	}
	return p
}

// Compress divides every control-point time by factor, replaying the
// same shape faster (factor > 1) or slower (factor < 1) — e.g. a
// 24-hour diurnal cycle compressed 1440x runs in one simulated minute. A
// factor that moves a time out of the representable range is an error.
func (p Profile) Compress(factor float64) (Profile, error) {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return Profile{}, fmt.Errorf("profile: compression factor must be a positive finite number, got %v", factor)
	}
	var err error
	if p.Arrival, err = p.Arrival.compress("arrival", factor); err != nil {
		return Profile{}, err
	}
	if p.Population, err = p.Population.compress("population", factor); err != nil {
		return Profile{}, err
	}
	return p, nil
}

// Sum composes profiles by pointwise addition of their curves, over the
// union of their control points — e.g. a diurnal baseline plus a flash
// crowd. The result carries a "+"-joined name.
func Sum(profiles ...Profile) Profile {
	var out Profile
	for i, p := range profiles {
		if i == 0 {
			out.Name = p.Name
		} else {
			out.Name += "+" + p.Name
		}
		out.Arrival = sumCurves(out.Arrival, p.Arrival)
		out.Population = sumCurves(out.Population, p.Population)
	}
	return out
}

// sumCurves returns the pointwise sum of two piecewise-linear curves,
// with control points at the union of both point sets (the sum of two
// piecewise-linear functions is piecewise linear on that union).
func sumCurves(a, b Curve) Curve {
	if len(a) == 0 {
		return append(Curve(nil), b...)
	}
	if len(b) == 0 {
		return append(Curve(nil), a...)
	}
	times := make([]units.Duration, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var t units.Duration
		switch {
		case i == len(a):
			t = b[j].T
		case j == len(b):
			t = a[i].T
		case a[i].T < b[j].T:
			t = a[i].T
		default:
			t = b[j].T
		}
		for i < len(a) && a[i].T == t {
			i++
		}
		for j < len(b) && b[j].T == t {
			j++
		}
		times = append(times, t)
	}
	out := make(Curve, len(times))
	for k, t := range times {
		out[k] = Point{T: t, V: a.At(t) + b.At(t)}
	}
	return out
}
