// Package advdet is the simdeterminism fixture for adversarial traffic
// generation: a pulse train or lockstep cohort is only adversarial if
// it replays identically, so its epochs come from the simulated clock
// and any jitter from a seeded stream. Wall-clock anchoring and global
// math/rand jitter are violations; pure phase arithmetic and the
// generation timing in wallclock.go are not.
package advdet

import (
	"math/rand"
	"time"
)

type train struct {
	Period time.Duration
	Duty   float64
}

// badEpochs anchors the burst phase at the machine's clock and jitters
// it from the process-global source: the "synchronized" cohort would
// drift apart between runs. Outside wallclock.go both clock reads are
// findings.
func badEpochs(trains []train) []time.Duration {
	epoch := time.Now() // want `wall-clock time\.Now`
	var starts []time.Duration
	for _, tr := range trains {
		jitter := time.Duration(rand.Int63n(int64(tr.Period))) // want `global math/rand\.Int63n`
		starts = append(starts, time.Since(epoch)+jitter)      // want `wall-clock time\.Since`
	}
	return starts
}

// badSpacing paces the probe's fill phase on the machine clock instead
// of scheduling simulated departures.
func badSpacing(gap time.Duration) {
	time.Sleep(gap) // want `wall-clock time\.Sleep`
}

// goodEpochs is the sanctioned shape: every train starts at the same
// simulated origin and any jitter comes from a seeded stream.
func goodEpochs(trains []train, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var starts []time.Duration
	for _, tr := range trains {
		starts = append(starts, time.Duration(rng.Int63n(int64(tr.Period))))
	}
	return starts
}

// phaseOffset is pure modular arithmetic on simulated durations: no
// clock is read, time.Duration is just a type.
func phaseOffset(since, period time.Duration, duty float64) bool {
	off := since % period
	return off < time.Duration(duty*float64(period))
}
