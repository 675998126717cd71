//go:build !auditmutation

package link

import "testing"

// TestMutationGateOffByDefault guards the build-tag wiring: without the
// auditmutation tag the seeded bugs must be compiled out.
func TestMutationGateOffByDefault(t *testing.T) {
	if mutateStartAtNow || mutateHandOffAtOffer {
		t.Fatal("a seeded link bug is on without the auditmutation build tag")
	}
}
