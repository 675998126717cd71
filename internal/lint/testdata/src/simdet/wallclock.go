// This file is simdet's one place allowed to read the machine clock.
// Its readings reach stderr progress output and nothing else, so they
// are exempt; waiting on the clock and the global math/rand source are
// findings here as everywhere.

package simdet

import (
	"fmt"
	"math/rand"
	"os"
	"time"
)

// progress times work for stderr progress output.
func progress() {
	t0 := time.Now()
	work()
	fmt.Fprintf(os.Stderr, "progress: %v\n", time.Since(t0))
}

// remaining is a countdown for the same progress line.
func remaining(deadline time.Time) time.Duration {
	return time.Until(deadline)
}

// pace waits on the machine clock: no file may do that.
func pace() {
	time.Sleep(time.Millisecond)    // want `wall-clock time\.Sleep`
	_ = time.NewTicker(time.Second) // want `wall-clock time\.NewTicker`
}

// jitter draws from the process-wide source: no file may do that.
func jitter() int {
	return rand.Intn(3) // want `global math/rand\.Intn`
}
