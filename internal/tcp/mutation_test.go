//go:build auditmutation

package tcp

import "testing"

// TestAuditMutation is the mutation check for the sender audit: the
// auditmutation build tag drops onNewAck's raise of sndNxt (see
// mutation_on.go), and the send-time check must catch the sender
// resending data below sndUna. Run with:
//
//	go test -tags auditmutation -run TestAuditMutation ./internal/tcp/
func TestAuditMutation(t *testing.T) {
	if !mutateSkipSndNxtRaise {
		t.Fatal("auditmutation build tag set but the mutation gate is off")
	}
	_, aud := lateAckAfterRewind(t)
	found := false
	for _, v := range aud.Violations() {
		found = found || v.Invariant == "seq-order"
	}
	if !found {
		t.Fatalf("dropped sndNxt raise was not caught by the send-time audit; got %v", aud.Violations())
	}
}
