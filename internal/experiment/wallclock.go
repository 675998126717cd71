// This file is the package's one place allowed to read the machine
// clock (buflint's simdeterminism). Its readings reach telemetry gauges
// (sim.wall_seconds*, sweep.*wall_seconds*) and nothing else: no result,
// cache key or random stream ever sees them.

package experiment

import "time"

// stopwatch measures wall time from when it was started.
type stopwatch struct{ start time.Time }

func startStopwatch() stopwatch { return stopwatch{start: time.Now()} }

// elapsed is the wall time since the stopwatch started.
func (s stopwatch) elapsed() time.Duration { return time.Since(s.start) }
