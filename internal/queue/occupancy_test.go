package queue_test

import (
	"math"
	"testing"

	"bufsim/internal/link"
	"bufsim/internal/packet"
	"bufsim/internal/queue"
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// A drop-tail queue's occupancy is measured by the link that drains it
// (link.Occupancy), so these tests drive the queue through a link whose
// rate is chosen to hold the packets in the queue for known spans.

type sink struct{}

func (sink) Handle(*packet.Packet) {}

func pkt(seq int64, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Seq: seq, Size: size}
}

func TestDropTailOccupancyAccounting(t *testing.T) {
	s := sim.NewScheduler()
	// A 1000-byte packet takes 8 s at 1 Kbps: the first one stays on the
	// wire throughout and the queue behind it only grows.
	l := link.New("test", s, units.Kbps, 0, queue.NewDropTail(queue.PacketLimit(10)), sink{})
	l.Send(pkt(0, 1000))
	// One packet resident for 1s, then two packets for 1s.
	l.Send(pkt(1, 1000))
	s.Run(units.Epoch.Add(units.Second))
	l.Send(pkt(2, 1000))
	s.Run(units.Epoch.Add(2 * units.Second))
	mean, peak := l.Occupancy()
	if mean < 1.49 || mean > 1.51 {
		t.Errorf("mean occupancy = %v, want 1.5", mean)
	}
	if peak != 2 {
		t.Errorf("peak occupancy = %d, want 2", peak)
	}
}

func TestDropTailResetOccupancyEpoch(t *testing.T) {
	// Ten packets resident for the first second (the warmup fill) behind
	// a 1000-byte packet that takes 1 s at 8 Kbps; the ten are 1 byte
	// each, 1 ms apiece on the wire, so they drain within 10 ms once it
	// leaves. The window then restarts: the mean over the new window must
	// not see the transient, which would otherwise bias it toward the
	// fill-up.
	s := sim.NewScheduler()
	l := link.New("test", s, 8*units.Kbps, 0, queue.NewDropTail(queue.PacketLimit(100)), sink{})
	l.Send(pkt(0, 1000))
	for i := int64(1); i <= 10; i++ {
		l.Send(pkt(i, 1))
	}
	sec := units.Epoch.Add(units.Second)
	s.Run(sec)
	if m, _ := l.Occupancy(); m < 9.99 || m > 10.01 {
		t.Fatalf("mean occupancy over warmup = %v, want 10", m)
	}
	// At 1 s the big packet has left and the first small one is on the
	// wire: nine remain queued.
	l.RestartOccupancy()
	if _, peak := l.Occupancy(); peak != 9 {
		t.Errorf("peak after restart = %d, want the current occupancy 9", peak)
	}
	s.Run(units.Epoch.Add(2 * units.Second))
	// 9, 8, ..., 1 packets for 1 ms each, then empty to 2 s: 45 ms of one
	// packet over the 1 s window. Integrating from t=0 would have
	// reported (10*1 + 0.045)/2 ≈ 5.
	if m, _ := l.Occupancy(); math.Abs(m-0.045) > 1e-9 {
		t.Errorf("mean occupancy after restart = %v, want 0.045", m)
	}
}
