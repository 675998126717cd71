// Package simdet is the simdeterminism fixture: wall-clock reads
// outside wallclock.go, waits on the machine clock and global math/rand
// draws are violations; the reads in wallclock.go, seeded streams, and
// plain type uses are not.
package simdet

import (
	"math/rand"
	"time"
)

// wallClock leaks the elapsed reading to its caller. Outside
// wallclock.go every read is a finding, the one that feeds only
// time.Since included, and the Sleep is a finding in every file.
func wallClock() time.Duration {
	start := time.Now()          // want `wall-clock time\.Now`
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep`
	return time.Since(start)     // want `wall-clock time\.Since`
}

// wallLeak returns the raw clock reading itself.
func wallLeak() time.Time {
	return time.Now() // want `wall-clock time\.Now in simdet outside wallclock\.go`
}

func timers() {
	_ = time.After(time.Second)    // want `wall-clock time\.After`
	_ = time.NewTimer(time.Second) // want `wall-clock time\.NewTimer`
}

func globalRand() int {
	rand.Seed(42)             // want `global math/rand\.Seed`
	rand.Shuffle(3, swap)     // want `global math/rand\.Shuffle`
	if rand.Float64() > 0.5 { // want `global math/rand\.Float64`
		return rand.Intn(10) // want `global math/rand\.Intn`
	}
	return 0
}

func swap(i, j int) {}

// seeded streams are the sanctioned source of randomness.
func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}

// plain uses of time's types and constants are fine: only clock reads
// and waits are nondeterministic.
func typesOnly(d time.Duration) time.Duration {
	var zero time.Time
	_ = zero
	return d * 2
}

// work stands in for the code a stopwatch times.
func work() {}

// recordWall stores its argument in package state: a read handed to it
// outside wallclock.go is a finding like any other.
var lastElapsed time.Duration

func recordWall(d time.Duration) {
	lastElapsed = d
}

func leakyHelper() {
	t0 := time.Now() // want `wall-clock time\.Now`
	work()
	recordWall(time.Since(t0)) // want `wall-clock time\.Since`
}

// suppressed demonstrates the escape hatch: the directive names the
// analyzer and gives a reason, so the leak is accepted.
func suppressed() time.Time {
	//lint:ignore simdeterminism fixture: progress output timing never feeds a result
	return time.Now()
}

func suppressedTrailing() time.Time {
	return time.Now() //lint:ignore simdeterminism fixture: trailing-form suppression
}
