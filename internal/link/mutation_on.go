//go:build auditmutation

package link

// mutateStartAtNow: see mutation_off.go.
const mutateStartAtNow = true
