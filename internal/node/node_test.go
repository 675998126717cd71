package node

import (
	"testing"

	"bufsim/internal/packet"
)

type sink struct{ got []*packet.Packet }

func (s *sink) Handle(p *packet.Packet) { s.got = append(s.got, p) }

func TestRouterForwardsByDestination(t *testing.T) {
	r := NewRouter(1, "r1")
	a, b := &sink{}, &sink{}
	r.AddRoute(10, a)
	r.AddRoute(11, b)
	r.Handle(&packet.Packet{Dst: 10})
	r.Handle(&packet.Packet{Dst: 11})
	r.Handle(&packet.Packet{Dst: 10})
	if len(a.got) != 2 || len(b.got) != 1 {
		t.Errorf("routed %d/%d, want 2/1", len(a.got), len(b.got))
	}
}

func TestRouterDuplicateRoutePanics(t *testing.T) {
	r := NewRouter(1, "r1")
	r.AddRoute(10, &sink{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate route did not panic")
		}
	}()
	r.AddRoute(10, &sink{})
}

func TestRouterUnroutablePanics(t *testing.T) {
	r := NewRouter(1, "r1")
	defer func() {
		if recover() == nil {
			t.Error("unroutable packet did not panic")
		}
	}()
	r.Handle(&packet.Packet{Dst: 99})
}

func TestRouterSparseAndInvalidRoutes(t *testing.T) {
	// The table is dense by NodeID but ids need not arrive in order, and a
	// gap between two routes is still "no route".
	r := NewRouter(1, "r1")
	hi, lo := &sink{}, &sink{}
	r.AddRoute(40, hi)
	r.AddRoute(3, lo)
	r.Handle(&packet.Packet{Dst: 40})
	r.Handle(&packet.Packet{Dst: 3})
	if len(hi.got) != 1 || len(lo.got) != 1 {
		t.Errorf("routed %d/%d, want 1/1", len(hi.got), len(lo.got))
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("gap between routes", func() { r.Handle(&packet.Packet{Dst: 20}) })
	mustPanic("negative destination", func() { r.Handle(&packet.Packet{Dst: -1}) })
	mustPanic("negative route", func() { r.AddRoute(-1, lo) })
	mustPanic("nil next hop", func() { r.AddRoute(5, nil) })
}

func TestHostDemuxByFlow(t *testing.T) {
	h := NewHost(5, "h")
	f1, f2 := &sink{}, &sink{}
	h.Attach(1, f1)
	h.Attach(2, f2)
	h.Handle(&packet.Packet{Flow: 1})
	h.Handle(&packet.Packet{Flow: 2})
	h.Handle(&packet.Packet{Flow: 1})
	if len(f1.got) != 2 || len(f2.got) != 1 {
		t.Errorf("demuxed %d/%d, want 2/1", len(f1.got), len(f2.got))
	}
	if h.ID() != 5 {
		t.Errorf("ID = %d", h.ID())
	}
}

func TestHostDetachDropsSilently(t *testing.T) {
	h := NewHost(5, "h")
	f := &sink{}
	h.Attach(1, f)
	h.Detach(1)
	h.Handle(&packet.Packet{Flow: 1}) // must not panic
	if len(f.got) != 0 {
		t.Error("detached agent still received packets")
	}
	// Re-attach after detach is allowed (flow IDs are unique in practice,
	// but the host should not care).
	h.Attach(1, f)
}

func TestHostDuplicateAttachPanics(t *testing.T) {
	h := NewHost(5, "h")
	h.Attach(1, &sink{})
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach did not panic")
		}
	}()
	h.Attach(1, &sink{})
}

// TestHostDetachAfterDelivery: the host remembers the last flow it
// delivered to, and Detach must forget it — a packet for a flow that has
// just been delivered to and then detached still falls on the floor, a
// second flow's cached entry survives the first one's Detach, and a flow
// ID attached again reaches the new agent, not the remembered one.
func TestHostDetachAfterDelivery(t *testing.T) {
	h := NewHost(5, "h")
	f1, f2 := &sink{}, &sink{}
	h.Attach(1, f1)
	h.Attach(2, f2)
	h.Handle(&packet.Packet{Flow: 1})
	h.Handle(&packet.Packet{Flow: 1}) // served from the remembered entry
	h.Detach(1)
	h.Handle(&packet.Packet{Flow: 1})
	if len(f1.got) != 2 {
		t.Fatalf("flow 1's agent got %d packets, want the 2 sent before Detach", len(f1.got))
	}
	h.Handle(&packet.Packet{Flow: 2})
	h.Detach(1) // detaching some other (already gone) flow keeps flow 2's entry valid
	h.Handle(&packet.Packet{Flow: 2})
	if len(f2.got) != 2 {
		t.Errorf("flow 2's agent got %d packets, want 2", len(f2.got))
	}
	again := &sink{}
	h.Detach(2)
	h.Attach(2, again)
	h.Handle(&packet.Packet{Flow: 2})
	if len(f2.got) != 2 || len(again.got) != 1 {
		t.Errorf("after re-attach the old agent has %d packets and the new one %d, want 2 and 1", len(f2.got), len(again.got))
	}
}
