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
	h.Handle(&packet.Packet{Flow: 3}) // no agent: falls on the floor
	if len(f1.got) != 2 || len(f2.got) != 1 {
		t.Errorf("demuxed %d/%d, want 2/1", len(f1.got), len(f2.got))
	}
	if h.ID() != 5 {
		t.Errorf("ID = %d", h.ID())
	}
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
