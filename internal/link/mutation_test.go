//go:build auditmutation

package link

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// TestAuditMutation is the mutation check for the link's audit: the
// auditmutation build tag makes every packet start transmission when it
// is offered, over whatever is still being sent (see mutation_on.go),
// and the audit must report overlapping transmissions. Run with:
//
//	go test -tags auditmutation -run TestAuditMutation ./internal/link/
func TestAuditMutation(t *testing.T) {
	if !mutateStartAtNow {
		t.Fatal("auditmutation build tag set but the mutation gate is off")
	}
	s := sim.NewScheduler()
	l := New("mutated", s, 10*units.Mbps, units.Millisecond, queue.NewDropTail(queue.PacketLimit(10)), &collector{sched: s})
	aud := audit.New()
	l.SetAuditor(aud)
	for i := int64(0); i < 3; i++ {
		l.Send(mkpkt(i, 1000))
	}
	s.Run(units.Epoch.Add(units.Second))
	found := map[string]bool{}
	for _, v := range aud.Violations() {
		found[v.Invariant] = true
	}
	if !found["serialization"] {
		t.Errorf("overlapping transmissions went unreported: %v", aud.Violations())
	}
}
