//go:build !auditmutation

package link

import "testing"

// TestMutationGateOffByDefault guards the build-tag wiring: without the
// auditmutation tag the seeded bug must be compiled out.
func TestMutationGateOffByDefault(t *testing.T) {
	if mutateStartAtNow {
		t.Fatal("mutateStartAtNow is on without the auditmutation build tag")
	}
}
