//go:build auditmutation

package tcp

// mutateSkipSndNxtRaise: see mutation_off.go.
const mutateSkipSndNxtRaise = true
