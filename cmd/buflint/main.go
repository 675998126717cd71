// Buflint runs the simulator's static-analysis suite (internal/lint:
// simdeterminism, maporder, unitsafety) over the packages of the
// enclosing module, loading and type-checking them from source with the
// standard library alone. A nested module such as benchmark/ is not
// part of the enclosing one and is not linted. simdeterminism allows
// the wall clock to be read only in files named wallclock.go.
//
// Usage:
//
//	go run ./cmd/buflint [packages]   # default ./...
//
// Findings print to stderr in the standard file:line:col form, followed
// by a count; the exit status is 2 when there are any, 1 on a load or
// type error, 0 on a clean tree.
//
// Intentional exceptions are suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on, or immediately above, the offending line. A directive naming an
// analyzer whose finding no longer fires there is itself an error
// (lintstale): the suppression count can only shrink.
package main

import (
	"fmt"
	"os"

	"bufsim/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	mod, err := lint.FindModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	findings, err := lint.Run(mod, patterns, lint.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "buflint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}
