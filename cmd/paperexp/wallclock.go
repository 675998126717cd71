// This file is paperexp's one place allowed to read the machine clock
// (buflint's simdeterminism). Its readings reach the "(id in N.Ns)"
// timing lines on stdout and nothing else.

package main

import "time"

// stopwatch measures wall time from when it was started.
type stopwatch struct{ start time.Time }

func startStopwatch() stopwatch { return stopwatch{start: time.Now()} }

// seconds is the wall time since the stopwatch started, in seconds.
func (s stopwatch) seconds() float64 { return time.Since(s.start).Seconds() }
