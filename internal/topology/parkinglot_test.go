package topology

import (
	"testing"

	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

func twoHop(buffer int) (*sim.Scheduler, *ParkingLot) {
	s := sim.NewScheduler()
	p := NewParkingLot(ParkingLotConfig{
		Sched:   s,
		Rates:   []units.BitRate{10 * units.Mbps, 10 * units.Mbps},
		Delays:  []units.Duration{5 * units.Millisecond, 5 * units.Millisecond},
		Buffers: []queue.Limit{queue.PacketLimit(buffer), queue.PacketLimit(buffer)},
	})
	return s, p
}

func TestParkingLotSingleFlowEndToEnd(t *testing.T) {
	s, p := twoHop(200)
	f := p.AddFlow(0, 2, 100*units.Millisecond, tcp.Config{SegmentSize: 1000, TotalSegments: 50})
	f.Sender.Start()
	s.Run(units.Time(10 * units.Second))
	if !f.Sender.Finished() {
		t.Fatalf("flow did not cross the chain: %+v", f.Sender.Stats())
	}
	if f.Receiver.ReceivedSegments != 50 {
		t.Errorf("receiver got %d segments", f.Receiver.ReceivedSegments)
	}
	// RTT fidelity: ~100 ms propagation plus serialization on two core
	// hops.
	if srtt := f.Sender.SRTT(); srtt < 100*units.Millisecond || srtt > 110*units.Millisecond {
		t.Errorf("SRTT = %v, want ~101ms", srtt)
	}
}

func TestParkingLotPartialPath(t *testing.T) {
	// A flow leaves the chain at its exit router: one on the first hop
	// only must not touch the second link, and one on the second hop only
	// must not touch the first.
	for _, c := range []struct{ from, to, idle int }{{0, 1, 1}, {1, 2, 0}} {
		s, p := twoHop(200)
		f := p.AddFlow(c.from, c.to, 60*units.Millisecond, tcp.Config{SegmentSize: 1000, TotalSegments: 20})
		f.Sender.Start()
		s.Run(units.Time(5 * units.Second))
		if !f.Sender.Finished() {
			t.Fatalf("flow %d->%d did not finish", c.from, c.to)
		}
		if n := p.Links[c.idle].DeliveredPackets(); n != 0 {
			t.Errorf("link %d carried %d packets for a flow %d->%d", c.idle, n, c.from, c.to)
		}
		if p.Links[c.from].DeliveredPackets() == 0 {
			t.Errorf("link %d carried nothing", c.from)
		}
	}
}

func TestParkingLotRouterForwardsByFlow(t *testing.T) {
	// Two flows share core link 0; router 1 must hand the one that exits
	// there to its receiver and put only the other on core link 1.
	s, p := twoHop(200)
	exits := p.AddFlow(0, 1, 60*units.Millisecond, tcp.Config{SegmentSize: 1000, TotalSegments: 20})
	crosses := p.AddFlow(0, 2, 60*units.Millisecond, tcp.Config{SegmentSize: 1000, TotalSegments: 10})
	exits.Sender.Start()
	crosses.Sender.Start()
	s.Run(units.Time(5 * units.Second))
	if !exits.Sender.Finished() || !crosses.Sender.Finished() {
		t.Fatalf("flows did not finish: %+v %+v", exits.Sender.Stats(), crosses.Sender.Stats())
	}
	if exits.Receiver.ReceivedSegments != 20 || crosses.Receiver.ReceivedSegments != 10 {
		t.Errorf("received %d/%d segments, want 20/10",
			exits.Receiver.ReceivedSegments, crosses.Receiver.ReceivedSegments)
	}
	sentExits, sentCrosses := exits.Sender.Stats().SegmentsSent, crosses.Sender.Stats().SegmentsSent
	if n := p.Links[0].DeliveredPackets(); n != sentExits+sentCrosses {
		t.Errorf("link 0 carried %d packets, want %d", n, sentExits+sentCrosses)
	}
	if n := p.Links[1].DeliveredPackets(); n != sentCrosses {
		t.Errorf("link 1 carried %d packets, want the crossing flow's %d", n, sentCrosses)
	}
}

func TestParkingLotBothLinksCongested(t *testing.T) {
	// Cross traffic on each hop plus flows crossing both: both links
	// saturate, and the cross flows still make progress (no starvation
	// of the double-bottleneck path).
	s, p := twoHop(40)
	rng := sim.NewRNG(1)
	var crossing []*PathFlow
	for i := 0; i < 8; i++ {
		rtt := units.Duration(rng.Uniform(float64(80*units.Millisecond), float64(140*units.Millisecond)))
		f := p.AddFlow(0, 2, rtt, tcp.Config{SegmentSize: 1000})
		crossing = append(crossing, f)
		f.Sender.Start()
		f1 := p.AddFlow(0, 1, rtt, tcp.Config{SegmentSize: 1000})
		f1.Sender.Start()
		f2 := p.AddFlow(1, 2, rtt, tcp.Config{SegmentSize: 1000})
		f2.Sender.Start()
	}
	warm := units.Time(8 * units.Second)
	s.Run(warm)
	busy0, busy1 := p.Links[0].BusyTime(), p.Links[1].BusyTime()
	s.Run(warm + units.Time(20*units.Second))
	u0 := p.Links[0].Utilization(busy0, warm)
	u1 := p.Links[1].Utilization(busy1, warm)
	if u0 < 0.9 || u1 < 0.9 {
		t.Errorf("links not saturated: %v %v", u0, u1)
	}
	for i, f := range crossing {
		if f.Sender.Stats().SegmentsSent < 100 {
			t.Errorf("crossing flow %d starved: %+v", i, f.Sender.Stats())
		}
	}
}

func TestParkingLotValidation(t *testing.T) {
	s := sim.NewScheduler()
	ok := ParkingLotConfig{
		Sched:   s,
		Rates:   []units.BitRate{units.Mbps},
		Delays:  []units.Duration{units.Millisecond},
		Buffers: []queue.Limit{queue.PacketLimit(10)},
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil sched", func() {
		c := ok
		c.Sched = nil
		NewParkingLot(c)
	})
	mustPanic("mismatched slices", func() {
		c := ok
		c.Delays = nil
		NewParkingLot(c)
	})
	mustPanic("zero rate", func() {
		c := ok
		c.Rates = []units.BitRate{0}
		NewParkingLot(c)
	})
	p := NewParkingLot(ok)
	mustPanic("bad path", func() { p.AddFlow(0, 2, 10*units.Millisecond, tcp.Config{}) })
	mustPanic("reverse path", func() { p.AddFlow(1, 1, 10*units.Millisecond, tcp.Config{}) })
	mustPanic("rtt too small", func() { p.AddFlow(0, 1, units.Millisecond, tcp.Config{}) })
}
