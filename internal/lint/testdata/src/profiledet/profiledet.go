// Package profiledet is the simdeterminism fixture for workload-profile
// shapes: compiling a time-varying profile into an arrival schedule must
// be a pure function of (curve, seed). Wall-clock anchoring and global
// math/rand thinning are violations; seeded streams, pure control-point
// arithmetic and the compile timing in wallclock.go are not.
package profiledet

import (
	"math/rand"
	"time"
)

type point struct {
	T time.Duration
	V float64
}

// badCompile anchors the schedule at the machine's clock and draws the
// thinning acceptance from the process-global source: the same profile
// would compile differently on every run. Outside wallclock.go both
// clock reads are findings.
func badCompile(curve []point) []time.Duration {
	start := time.Now() // want `wall-clock time\.Now`
	var schedule []time.Duration
	for _, p := range curve {
		if rand.Float64() < p.V { // want `global math/rand\.Float64`
			schedule = append(schedule, time.Since(start)+p.T) // want `wall-clock time\.Since`
		}
	}
	return schedule
}

// badPacing waits on the machine clock between launches instead of
// scheduling simulated events.
func badPacing(gap time.Duration) {
	time.Sleep(gap) // want `wall-clock time\.Sleep`
}

// goodCompile is the sanctioned shape: a seeded stream for thinning and
// pure duration arithmetic on the control points.
func goodCompile(curve []point, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var schedule []time.Duration
	var at time.Duration
	for _, p := range curve {
		if rng.Float64() < p.V {
			schedule = append(schedule, at+p.T)
		}
		at += p.T
	}
	return schedule
}

// interpolate is plain control-point math: time.Duration is just a
// type here, no clock is read.
func interpolate(a, b point, at time.Duration) float64 {
	if b.T == a.T {
		return a.V
	}
	frac := float64(at-a.T) / float64(b.T-a.T)
	return a.V + frac*(b.V-a.V)
}
