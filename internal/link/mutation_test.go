//go:build auditmutation

package link

import (
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// TestAuditMutation is the mutation check for the link's audit: the
// auditmutation build tag makes every packet start transmission when it
// is offered, over whatever is still being sent (see mutation_on.go),
// and the audit must report overlapping transmissions and a busy time
// longer than the time elapsed. Run with:
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
	for _, inv := range []string{"serialization", "busy-accounting"} {
		if !found[inv] {
			t.Errorf("overlapping transmissions went unreported as %s: %v", inv, aud.Violations())
		}
	}
}

// TestAuditMutationDropAccounting is the mutation check for the queue's
// books: the same tag makes DropTail forget the bytes of the packets it
// drops (see queue's mutation_on.go), and a burst that overflows a
// drop-tail, a RED and a CoDel link must be reported as a drop-accounting
// violation on each. The burst comes at one instant, so it overflows
// with every packet starting when it is offered. Run with:
//
//	go test -tags auditmutation -run TestAuditMutation ./internal/link/
func TestAuditMutationDropAccounting(t *testing.T) {
	const limit, burst = 4, 20
	for _, q := range []queue.Queue{
		queue.NewDropTail(queue.PacketLimit(limit)),
		queue.NewRED(queue.DefaultRED(limit, 800*units.Microsecond, func() float64 { return 0.5 })),
		queue.NewCoDel(queue.CoDelConfig{Limit: queue.PacketLimit(limit)}),
	} {
		s := sim.NewScheduler()
		l := New("mutated", s, 10*units.Mbps, units.Millisecond, q, &collector{sched: s})
		aud := audit.New()
		l.SetAuditor(aud)
		for i := int64(0); i < burst; i++ {
			l.Send(mkpkt(i, 1000))
		}
		s.Run(units.Epoch.Add(units.Second))
		if !hasViolation(aud, "drop-accounting") {
			t.Errorf("%T: the seeded dropped-bytes bug went unreported: %v", q, aud.Violations())
		}
	}
}

// TestAuditMutationHandOff is the mutation check for the hand-off: the
// same tag makes a link hand each packet to its receiver with the clock
// still at the instant the packet was offered, so the receiver stamps and
// sends its ACK a transmission and a propagation delay early (see
// mutation_on.go), and the audit must report the arrival instant. The
// offers come 10 ms apart onto an idle 10 Mb/s link, so each starts when
// offered and the start mutation changes nothing. Run with:
//
//	go test -tags auditmutation -run TestAuditMutation ./internal/link/
func TestAuditMutationHandOff(t *testing.T) {
	if !mutateHandOffAtOffer {
		t.Fatal("auditmutation build tag set but the hand-off mutation gate is off")
	}
	s := sim.NewScheduler()
	acks := &collector{sched: s}
	rcv := tcp.NewReceiver(tcp.Config{}, s, acks)
	l := New("mutated", s, 10*units.Mbps, units.Millisecond, queue.NewDropTail(queue.PacketLimit(10)), rcv)
	l.SetHandOff(func(*packet.Packet) packet.Handler { return rcv })
	aud := audit.New()
	l.SetAuditor(aud)
	o := &offerer{sends: []sendAt{{size: 1000}, {size: 1000}, {size: 1000}}, to: []packet.Handler{l}}
	for i := range o.sends {
		o.sends[i].at = units.Epoch.Add(units.Duration(i) * 10 * units.Millisecond)
		s.PostAt(o.sends[i].at, o, 0, i)
	}
	s.Run(units.Epoch.Add(units.Second))
	if len(acks.pkts) != 3 || acks.pkts[0].Sent != units.Epoch {
		t.Fatalf("the seeded bug is not live: %d ACKs, the first stamped %v", len(acks.pkts), acks.pkts[0].Sent)
	}
	if !hasViolation(aud, "arrival-instant") {
		t.Errorf("ACKs sent at the offer instant went unreported: %v", aud.Violations())
	}
}
