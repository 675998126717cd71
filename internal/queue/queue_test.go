package queue

import (
	"math"
	"testing"
	"testing/quick"

	"bufsim/internal/packet"
	"bufsim/internal/units"
)

func mkpkt(seq int64, size units.ByteSize) *packet.Packet {
	return &packet.Packet{Seq: seq, Size: size}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(PacketLimit(100))
	for i := int64(0); i < 10; i++ {
		if !q.Enqueue(mkpkt(i, 1000), 0) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	for i := int64(0); i < 10; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("dequeue %d: got %v", i, p)
		}
	}
	if p := q.Dequeue(0); p != nil {
		t.Errorf("dequeue from empty queue returned %v", p)
	}
}

func TestDropTailPacketLimit(t *testing.T) {
	q := NewDropTail(PacketLimit(3))
	for i := int64(0); i < 3; i++ {
		if !q.Enqueue(mkpkt(i, 1000), 0) {
			t.Fatalf("enqueue %d rejected below limit", i)
		}
	}
	if q.Enqueue(mkpkt(3, 1000), 0) {
		t.Error("enqueue accepted above packet limit")
	}
	st := q.Stats()
	if st.DroppedPackets != 1 || st.EnqueuedPackets != 3 {
		t.Errorf("stats = %+v", st)
	}
	// Draining one packet makes room for exactly one more.
	q.Dequeue(0)
	if !q.Enqueue(mkpkt(4, 1000), 0) {
		t.Error("enqueue rejected after drain")
	}
	if q.Enqueue(mkpkt(5, 1000), 0) {
		t.Error("enqueue accepted when full again")
	}
}

func TestDropTailByteLimit(t *testing.T) {
	q := NewDropTail(ByteLimit(2500))
	if !q.Enqueue(mkpkt(0, 1000), 0) || !q.Enqueue(mkpkt(1, 1000), 0) {
		t.Fatal("enqueues rejected below byte limit")
	}
	if q.Enqueue(mkpkt(2, 1000), 0) {
		t.Error("enqueue accepted above byte limit")
	}
	// A smaller packet still fits.
	if !q.Enqueue(mkpkt(3, 500), 0) {
		t.Error("small packet rejected though bytes available")
	}
	if q.Bytes() != 2500 {
		t.Errorf("Bytes = %d, want 2500", q.Bytes())
	}
}

func TestDropTailUnlimited(t *testing.T) {
	q := NewDropTail(Limit{})
	for i := int64(0); i < 10000; i++ {
		if !q.Enqueue(mkpkt(i, 1500), 0) {
			t.Fatalf("unlimited queue dropped packet %d", i)
		}
	}
	if q.Len() != 10000 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestDropTailEnqueueStampsTime(t *testing.T) {
	q := NewDropTail(PacketLimit(10))
	p := mkpkt(0, 100)
	q.Enqueue(p, units.Time(42))
	if p.Enqueued != 42 {
		t.Errorf("Enqueued = %v, want 42", p.Enqueued)
	}
}

func TestFIFOGrowthPreservesOrder(t *testing.T) {
	// Push/pop across multiple ring growths, checking order; exercises
	// the wraparound copy in grow().
	f := func(ops []bool) bool {
		q := NewDropTail(Limit{})
		var next, expect int64
		for _, push := range ops {
			if push {
				q.Enqueue(mkpkt(next, 10), 0)
				next++
			} else if q.Len() > 0 {
				p := q.Dequeue(0)
				if p.Seq != expect {
					return false
				}
				expect++
			}
		}
		for q.Len() > 0 {
			p := q.Dequeue(0)
			if p.Seq != expect {
				return false
			}
			expect++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQueueInvariantLenBytes(t *testing.T) {
	// Property: Len and Bytes always agree with the multiset of resident
	// packets under any workload.
	f := func(sizes []uint8) bool {
		q := NewDropTail(PacketLimit(32))
		resident := 0
		var bytes units.ByteSize
		for i, s := range sizes {
			size := units.ByteSize(s) + 40
			if i%3 == 2 {
				if p := q.Dequeue(0); p != nil {
					resident--
					bytes -= p.Size
				}
				continue
			}
			if q.Enqueue(mkpkt(int64(i), size), 0) {
				resident++
				bytes += size
			}
		}
		return q.Len() == resident && q.Bytes() == bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- RED ---

func redRand(seq ...float64) func() float64 {
	i := 0
	return func() float64 {
		v := seq[i%len(seq)]
		i++
		return v
	}
}

func TestREDBelowMinThreshNeverDrops(t *testing.T) {
	cfg := DefaultRED(100, units.Millisecond, redRand(0.0))
	q := NewRED(cfg)
	// Keep the queue shallow: alternate enqueue/dequeue.
	for i := int64(0); i < 1000; i++ {
		if !q.Enqueue(mkpkt(i, 1000), units.Time(i)*units.Time(units.Millisecond)) {
			t.Fatalf("RED dropped below MinThresh at %d (avg=%v)", i, q.AvgQueue())
		}
		q.Dequeue(units.Time(i) * units.Time(units.Millisecond))
	}
}

func TestREDDropsProbabilisticallyBetweenThresholds(t *testing.T) {
	cfg := REDConfig{
		Limit:          PacketLimit(1000),
		MinThresh:      5,
		MaxThresh:      15,
		MaxP:           0.5,
		Wq:             1.0, // avg tracks the instantaneous queue exactly
		MeanPacketTime: units.Millisecond,
		Rand:           redRand(0.9999), // never triggers a probabilistic drop...
	}
	q := NewRED(cfg)
	for i := int64(0); i < 10; i++ {
		if !q.Enqueue(mkpkt(i, 100), 0) {
			t.Fatalf("unexpected drop at %d", i)
		}
	}
	// avg is now ~10, between thresholds. With Rand always ~1, drops only
	// happen when pa >= 1 (forced); with low Rand, every packet drops.
	q2 := NewRED(REDConfig{
		Limit: PacketLimit(1000), MinThresh: 5, MaxThresh: 15, MaxP: 0.5,
		Wq: 1.0, MeanPacketTime: units.Millisecond, Rand: redRand(0.0),
	})
	for i := int64(0); i < 6; i++ {
		q2.Enqueue(mkpkt(i, 100), 0)
	}
	// avg == 5 is not > MinThresh; the 7th packet sees avg 5.? > 5 (it
	// counts current occupancy 6) and must early-drop with Rand()==0.
	if q2.Enqueue(mkpkt(7, 100), 0) {
		t.Errorf("RED did not early-drop between thresholds (avg=%v)", q2.AvgQueue())
	}
}

func TestREDAboveMaxThreshAlwaysDrops(t *testing.T) {
	cfg := REDConfig{
		Limit: PacketLimit(1000), MinThresh: 2, MaxThresh: 4, MaxP: 0.1,
		Wq: 1.0, MeanPacketTime: units.Millisecond, Rand: redRand(0.9999),
	}
	q := NewRED(cfg)
	accepted := 0
	for i := int64(0); i < 100; i++ {
		if q.Enqueue(mkpkt(i, 100), 0) {
			accepted++
		}
	}
	// Once the queue holds >= MaxThresh packets, everything drops.
	if q.Len() > 6 {
		t.Errorf("RED queue grew to %d despite MaxThresh=4", q.Len())
	}
	if st := q.Stats(); st.DroppedPackets == 0 {
		t.Error("no drops recorded")
	}
}

func TestREDHardLimit(t *testing.T) {
	// Even with thresholds that never early-drop, the physical buffer cap
	// must hold.
	cfg := REDConfig{
		Limit: PacketLimit(5), MinThresh: 1000, MaxThresh: 2000, MaxP: 0.1,
		Wq: 0.002, MeanPacketTime: units.Millisecond, Rand: redRand(0.9999),
	}
	q := NewRED(cfg)
	for i := int64(0); i < 10; i++ {
		q.Enqueue(mkpkt(i, 100), 0)
	}
	if q.Len() != 5 {
		t.Errorf("Len = %d, want 5 (hard limit)", q.Len())
	}
}

func TestREDIdleDecay(t *testing.T) {
	cfg := REDConfig{
		Limit: PacketLimit(100), MinThresh: 5, MaxThresh: 50, MaxP: 0.1,
		Wq: 0.5, MeanPacketTime: units.Millisecond, Rand: redRand(0.9999),
	}
	q := NewRED(cfg)
	for i := int64(0); i < 20; i++ {
		q.Enqueue(mkpkt(i, 100), 0)
	}
	avgBefore := q.AvgQueue()
	for q.Len() > 0 {
		q.Dequeue(0)
	}
	// A long idle period decays the average toward zero.
	q.Enqueue(mkpkt(100, 100), units.Time(units.Second))
	if q.AvgQueue() >= avgBefore/2 {
		t.Errorf("avg did not decay across idle: before=%v after=%v", avgBefore, q.AvgQueue())
	}
}

func TestREDIdleStateWithoutAging(t *testing.T) {
	// Regression: with MeanPacketTime == 0 (idle aging unconfigured) the
	// idle flag was only cleared inside the aging branch, so once the
	// queue drained it stayed flagged idle forever with a stale idleSince.
	cfg := REDConfig{
		Limit: PacketLimit(100), MinThresh: 5, MaxThresh: 50, MaxP: 0.1,
		Wq: 0.5, Rand: redRand(0.9999),
	}
	q := NewRED(cfg)
	q.Enqueue(mkpkt(0, 100), 0)
	if q.idle {
		t.Fatal("idle flag still set after enqueue with aging disabled")
	}
	q.Dequeue(ms(1))
	if !q.idle {
		t.Fatal("drained queue must be flagged idle")
	}
	// Build up an average, drain, and come back much later: with aging
	// off the average must follow the plain EWMA — the idle gap and the
	// stale flag must contribute nothing.
	for i := int64(1); i <= 20; i++ {
		q.Enqueue(mkpkt(i, 100), ms(2))
	}
	avgBefore := q.AvgQueue()
	for q.Len() > 0 {
		q.Dequeue(ms(3))
	}
	q.Enqueue(mkpkt(100, 100), ms(60_000))
	want := (1 - cfg.Wq) * avgBefore // one EWMA step toward the empty queue
	if got := q.AvgQueue(); math.Abs(got-want) > 1e-12 {
		t.Errorf("avg after idle gap = %v, want plain EWMA %v (MeanPacketTime==0 must not age)", got, want)
	}
	if q.idle {
		t.Error("idle flag set while the queue is non-empty")
	}
}

func TestREDPanicsWithoutRand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRED without Rand did not panic")
		}
	}()
	NewRED(REDConfig{Wq: 0.1})
}

func TestREDMarkECN(t *testing.T) {
	cfg := REDConfig{
		Limit: PacketLimit(1000), MinThresh: 2, MaxThresh: 4, MaxP: 0.1,
		Wq: 1.0, MeanPacketTime: units.Millisecond, Rand: redRand(0.0),
		MarkECN: true,
	}
	q := NewRED(cfg)
	// ECN-capable packets above MaxThresh get marked, not dropped.
	for i := int64(0); i < 10; i++ {
		p := mkpkt(i, 100)
		p.Flags |= packet.FlagECT
		if !q.Enqueue(p, 0) {
			t.Fatalf("ECT packet %d dropped despite MarkECN", i)
		}
	}
	if q.Marked == 0 {
		t.Fatal("no packets marked")
	}
	marked := 0
	for q.Len() > 0 {
		if q.Dequeue(0).Flags&packet.FlagCE != 0 {
			marked++
		}
	}
	if int64(marked) != q.Marked {
		t.Errorf("marked-in-queue %d != Marked counter %d", marked, q.Marked)
	}
	// Non-ECT packets still drop.
	q2 := NewRED(cfg)
	dropped := false
	for i := int64(0); i < 10; i++ {
		if !q2.Enqueue(mkpkt(i, 100), 0) {
			dropped = true
		}
	}
	if !dropped {
		t.Error("non-ECT packets never dropped under MarkECN")
	}
	// The physical limit still tail-drops even ECT packets.
	q3 := NewRED(REDConfig{
		Limit: PacketLimit(3), MinThresh: 100, MaxThresh: 200, MaxP: 0.1,
		Wq: 0.002, MeanPacketTime: units.Millisecond, Rand: redRand(0.9999),
		MarkECN: true,
	})
	drops := 0
	for i := int64(0); i < 6; i++ {
		p := mkpkt(i, 100)
		p.Flags |= packet.FlagECT
		if !q3.Enqueue(p, 0) {
			drops++
		}
	}
	if drops != 3 {
		t.Errorf("physical-limit drops = %d, want 3", drops)
	}
}

func TestREDMarkThenTailDropAccounting(t *testing.T) {
	// Regression: an ECT packet whose early-drop decision was converted to
	// a CE mark can still be forced-tail-dropped at the physical limit. The
	// mark must not survive that drop — previously the packet left Enqueue
	// with CE set and Marked incremented despite never entering the queue.
	q := NewRED(REDConfig{
		Limit: PacketLimit(3), MinThresh: 0.5, MaxThresh: 1.5, MaxP: 1.0,
		Wq: 1.0, MeanPacketTime: units.Millisecond, Rand: redRand(0.0),
		MarkECN: true,
	})
	// Fill to the physical limit with ECT packets; with Wq=1 the average
	// tracks the instantaneous length, so every admission past the first is
	// an early-drop-turned-mark.
	for i := int64(0); i < 3; i++ {
		p := mkpkt(i, 100)
		p.Flags |= packet.FlagECT
		if !q.Enqueue(p, 0) {
			t.Fatalf("ECT packet %d dropped while filling", i)
		}
	}
	markedBefore := q.Marked
	if markedBefore == 0 {
		t.Fatal("setup failed: no packets were CE-marked during the fill")
	}
	// The queue is physically full: this ECT packet is early-"dropped"
	// (avg >= MaxThresh), eligible for marking, then tail-dropped.
	p := mkpkt(99, 100)
	p.Flags |= packet.FlagECT
	if q.Enqueue(p, 0) {
		t.Fatal("packet admitted past the physical limit")
	}
	if p.Flags&packet.FlagCE != 0 {
		t.Error("tail-dropped packet left Enqueue with CE set")
	}
	if q.Marked != markedBefore {
		t.Errorf("Marked advanced %d -> %d on a dropped packet", markedBefore, q.Marked)
	}
	// Conservation: the Marked counter equals the CE packets actually queued.
	marked := int64(0)
	for q.Len() > 0 {
		if q.Dequeue(0).Flags&packet.FlagCE != 0 {
			marked++
		}
	}
	if marked != q.Marked {
		t.Errorf("CE packets in queue %d != Marked counter %d", marked, q.Marked)
	}
}

func TestREDFIFOOrder(t *testing.T) {
	cfg := DefaultRED(100, units.Millisecond, redRand(0.9999))
	q := NewRED(cfg)
	for i := int64(0); i < 5; i++ {
		q.Enqueue(mkpkt(i, 100), 0)
	}
	for i := int64(0); i < 5; i++ {
		p := q.Dequeue(0)
		if p == nil || p.Seq != i {
			t.Fatalf("RED broke FIFO order at %d: %v", i, p)
		}
	}
}
