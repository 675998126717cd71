//go:build auditmutation

package link

// mutateStartAtNow and mutateHandOffAtOffer: see mutation_off.go.
const (
	mutateStartAtNow     = true
	mutateHandOffAtOffer = true
)
