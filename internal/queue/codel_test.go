package queue

import (
	"testing"

	"bufsim/internal/units"
)

func ms(n int64) units.Time { return units.Time(n) * units.Time(units.Millisecond) }

func TestCoDelPassesLightTraffic(t *testing.T) {
	// Sojourn always below target: CoDel must behave like a plain FIFO.
	q := NewCoDel(CoDelConfig{Limit: PacketLimit(100)})
	for i := int64(0); i < 200; i++ {
		if !q.Enqueue(mkpkt(i, 1000), ms(i)) {
			t.Fatalf("light enqueue %d rejected", i)
		}
		p := q.Dequeue(ms(i) + units.Time(units.Millisecond)) // 1 ms sojourn
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d: %v", i, p)
		}
	}
	if q.SojournDrops != 0 {
		t.Errorf("SojournDrops = %d under light load", q.SojournDrops)
	}
}

func TestCoDelDropsPersistentQueue(t *testing.T) {
	// Build a standing queue whose sojourn stays far above target for
	// much longer than one interval: CoDel must start dropping.
	q := NewCoDel(CoDelConfig{Limit: PacketLimit(10000)})
	for i := int64(0); i < 2000; i++ {
		q.Enqueue(mkpkt(i, 1000), ms(i/10)) // 10 packets per ms: queue grows
	}
	// Drain slowly starting at t=500ms: every packet has a huge sojourn.
	var delivered, got int
	for i := int64(0); i < 1900; i++ {
		if p := q.Dequeue(ms(500 + i)); p != nil {
			delivered++
		}
		got++
	}
	if q.SojournDrops == 0 {
		t.Fatal("CoDel never dropped despite persistent overload")
	}
	if delivered == 0 {
		t.Fatal("CoDel starved the link completely")
	}
	// The drop rate ramps: with a persistent bad queue, drops should be
	// a visible fraction but not everything.
	frac := float64(q.SojournDrops) / float64(q.SojournDrops+int64(delivered))
	if frac < 0.01 || frac > 0.9 {
		t.Errorf("drop fraction = %v, implausible", frac)
	}
}

func TestCoDelRecoversWhenQueueClears(t *testing.T) {
	q := NewCoDel(CoDelConfig{Limit: PacketLimit(10000)})
	// Phase 1: overload to trigger dropping.
	for i := int64(0); i < 1000; i++ {
		q.Enqueue(mkpkt(i, 1000), 0)
	}
	for i := int64(0); i < 900; i++ {
		q.Dequeue(ms(200 + i))
	}
	if q.SojournDrops == 0 {
		t.Fatal("no drops during overload phase")
	}
	// Drain fully; the leftover packets are ancient, so the control law
	// keeps dropping through the drain (that is correct CoDel behaviour).
	// The queue empties and the state resets.
	for q.Len() > 0 {
		q.Dequeue(ms(3000))
	}
	dropsAfterOverload := q.SojournDrops
	// Phase 2: light traffic again — no more control-law drops.
	for i := int64(0); i < 100; i++ {
		now := ms(4000 + i)
		q.Enqueue(mkpkt(i, 1000), now)
		if p := q.Dequeue(now + units.Time(units.Millisecond)); p == nil {
			t.Fatalf("light packet %d dropped after recovery", i)
		}
	}
	if q.SojournDrops != dropsAfterOverload {
		t.Errorf("control law kept dropping after recovery: %d -> %d",
			dropsAfterOverload, q.SojournDrops)
	}
}

func TestCoDelPhysicalLimit(t *testing.T) {
	q := NewCoDel(CoDelConfig{Limit: PacketLimit(5)})
	accepted := 0
	for i := int64(0); i < 10; i++ {
		if q.Enqueue(mkpkt(i, 1000), 0) {
			accepted++
		}
	}
	if accepted != 5 {
		t.Errorf("accepted %d, want 5", accepted)
	}
	if q.SojournDrops != 0 {
		t.Error("tail drops counted as sojourn drops")
	}
	if q.Stats().DroppedPackets != 5 {
		t.Errorf("DroppedPackets = %d", q.Stats().DroppedPackets)
	}
}

func TestCoDelMaxPacketSmallSegments(t *testing.T) {
	// Regression: the "fewer than one MTU queued" suspension compared the
	// backlog against a hardcoded 1500 bytes instead of the configured
	// MaxPacket. With sub-MTU segments (here 100 B) a standing queue of
	// ten packets never reached 1500 B, so the control law was permanently
	// suspended and CoDel degenerated into a plain FIFO.
	q := NewCoDel(CoDelConfig{Limit: PacketLimit(100), MaxPacket: 100})
	for i := int64(0); i < 10; i++ {
		q.Enqueue(mkpkt(i, 100), 0)
	}
	// One-in one-out at 1 packet/ms keeps the backlog at ten packets
	// (1000 B) and every sojourn near 10 ms — persistently above the 5 ms
	// target for many intervals.
	for i := int64(0); i < 1000; i++ {
		q.Enqueue(mkpkt(10+i, 100), ms(i))
		q.Dequeue(ms(i))
	}
	if q.SojournDrops == 0 {
		t.Fatal("persistent 10ms standing queue of 100B packets never dropped; MaxPacket not honoured")
	}
}

func TestCoDelMaxPacketJumboSuspension(t *testing.T) {
	// The converse direction: with a 9000 B MTU configured, a backlog of
	// four 2000 B packets (8000 B, above the old hardcoded 1500 B but
	// below one jumbo frame) must keep the control law suspended even
	// though sojourns sit above target.
	q := NewCoDel(CoDelConfig{Limit: PacketLimit(100), MaxPacket: 9000})
	for i := int64(0); i < 4; i++ {
		q.Enqueue(mkpkt(i, 2000), 0)
	}
	for i := int64(0); i < 1000; i++ {
		now := ms(2 * i)
		q.Enqueue(mkpkt(4+i, 2000), now)
		q.Dequeue(now) // backlog after pop: 4 pkts = 8000 B < MaxPacket
	}
	if q.SojournDrops != 0 {
		t.Fatalf("control law dropped %d packets with less than one MTU queued", q.SojournDrops)
	}
}

func TestCoDelMaxPacketDefault(t *testing.T) {
	// The default MTU is the simulator's segment size, not Ethernet's
	// 1500: the two differ here, which is exactly how the hardcoded
	// constant went wrong.
	q := NewCoDel(CoDelConfig{})
	if q.cfg.MaxPacket != units.DefaultSegment {
		t.Errorf("default MaxPacket = %v, want units.DefaultSegment (%v)", q.cfg.MaxPacket, units.DefaultSegment)
	}
}

func TestCoDelEmptyDequeue(t *testing.T) {
	q := NewCoDel(CoDelConfig{Limit: Limit{}})
	if q.Dequeue(0) != nil {
		t.Error("empty dequeue returned a packet")
	}
	if q.Len() != 0 || q.Bytes() != 0 {
		t.Error("empty queue has size")
	}
}
