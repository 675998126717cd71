// This file is profiledet's one place allowed to read the machine
// clock. The compile timing it takes reaches stderr and nothing else,
// so its reads are exempt.

package profiledet

import (
	"fmt"
	"os"
	"time"
)

// timedCompile compiles the schedule and reports how long that took.
func timedCompile(curve []point, seed int64) []time.Duration {
	start := time.Now()
	schedule := goodCompile(curve, seed)
	fmt.Fprintf(os.Stderr, "compiled %d arrivals in %v\n", len(schedule), time.Since(start))
	return schedule
}
