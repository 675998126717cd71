// This file is advdet's one place allowed to read the machine clock.
// The generation timing it takes reaches stderr and nothing else, so
// its reads are exempt; waiting on the clock is a finding here too.

package advdet

import (
	"fmt"
	"os"
	"time"
)

// timedEpochs generates the epochs and reports how long that took.
func timedEpochs(trains []train, seed int64) []time.Duration {
	start := time.Now()
	starts := goodEpochs(trains, seed)
	fmt.Fprintf(os.Stderr, "%d epochs in %v\n", len(starts), time.Since(start))
	return starts
}

// throttle paces generation on the machine clock.
func throttle(gap time.Duration) {
	<-time.After(gap) // want `wall-clock time\.After`
}
