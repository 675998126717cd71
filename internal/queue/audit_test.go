package queue

import (
	"math/rand"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// disciplineTable is the shared cross-discipline test matrix: every queue
// discipline, in a few representative configurations, constructed fresh
// per run. The conservation property test and the fuzz harness both drive
// every entry through its Books, so a new discipline gets the whole
// battery by adding one row here.
var disciplineTable = []struct {
	name string
	make func(seed int64) Queue
}{
	{"droptail-pkts", func(int64) Queue { return NewDropTail(PacketLimit(32)) }},
	{"droptail-bytes", func(int64) Queue { return NewDropTail(ByteLimit(20000)) }},
	{"droptail-unlimited", func(int64) Queue { return NewDropTail(Limit{}) }},
	{"red", func(seed int64) Queue {
		return NewRED(DefaultRED(32, 400*units.Microsecond, rand.New(rand.NewSource(seed)).Float64))
	}},
	{"red-noaging", func(seed int64) Queue {
		return NewRED(DefaultRED(32, 0, rand.New(rand.NewSource(seed)).Float64))
	}},
	{"red-ecn", func(seed int64) Queue {
		cfg := DefaultRED(32, 400*units.Microsecond, rand.New(rand.NewSource(seed)).Float64)
		cfg.MarkECN = true
		return NewRED(cfg)
	}},
	{"codel", func(int64) Queue { return NewCoDel(CoDelConfig{Limit: PacketLimit(32)}) }},
	{"codel-smallmtu", func(int64) Queue {
		return NewCoDel(CoDelConfig{Limit: PacketLimit(32), MaxPacket: 100})
	}},
}

// offer and take drive q as a link's transmit-done path does, entering
// each outcome in its books b.
func offer(q Queue, b *Books, p *packet.Packet, now units.Time) {
	b.Offer(p.Size, q.Enqueue(p, now), now)
}
func take(q Queue, b *Books, now units.Time) { b.Dequeued(q.Dequeue(now), now) }

// driveRandom pushes a deterministic pseudo-random enqueue/dequeue
// schedule through q, kept in its Books, and fails the test on the first
// violation. Enqueues outnumber dequeues so limited queues
// exercise their drop paths, and the queue is drained at the end so the
// final cross-check runs against an empty queue.
func driveRandom(t *testing.T, name string, q Queue, seed int64, ops int) {
	t.Helper()
	aud := audit.New()
	b := NewBooks(q, aud, name)
	rng := rand.New(rand.NewSource(seed))
	now := units.Time(0)
	var seq int64
	for i := 0; i < ops; i++ {
		now = now.Add(units.Duration(rng.Intn(2000)) * units.Microsecond)
		if rng.Intn(3) < 2 {
			size := units.ByteSize(40 + rng.Intn(1460))
			p := mkpkt(seq, size)
			if name == "red-ecn" && rng.Intn(2) == 0 {
				p.Flags |= packet.FlagECT
			}
			offer(q, b, p, now)
			seq++
		} else {
			for n := rng.Intn(4); n >= 0; n-- {
				take(q, b, now)
			}
		}
	}
	for q.Len() > 0 {
		take(q, b, now)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("%s (seed %d): %v", name, seed, err)
	}
}

func TestConservationAcrossDisciplines(t *testing.T) {
	for _, d := range disciplineTable {
		d := d
		t.Run(d.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				driveRandom(t, d.name, d.make(seed), seed*977, 20000)
			}
		})
	}
}

// FuzzQueueConservation feeds an arbitrary op stream to every discipline:
// byte pairs decode to (time advance + enqueue/dequeue choice, packet
// size). Whatever the schedule, the conservation laws and FIFO order must
// hold.
func FuzzQueueConservation(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x12, 0xff, 0x03, 0x10, 0x1f, 0x00})
	f.Add([]byte("enqueue-heavy then drain completely, with some luck"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range disciplineTable {
			aud := audit.New()
			q := d.make(1)
			b := NewBooks(q, aud, d.name)
			now := units.Time(0)
			var seq int64
			for i := 0; i+1 < len(data); i += 2 {
				op, size := data[i], data[i+1]
				now = now.Add(units.Duration(op&0x0f) * units.Millisecond)
				if op&0x10 != 0 {
					take(q, b, now)
				} else {
					p := mkpkt(seq, units.ByteSize(40+int(size)*8))
					if op&0x20 != 0 {
						p.Flags |= packet.FlagECT
					}
					offer(q, b, p, now)
					seq++
				}
			}
			for q.Len() > 0 {
				take(q, b, now)
			}
			if err := aud.Err(); err != nil {
				t.Fatalf("%s: %v", d.name, err)
			}
		}
	})
}

// miscountingQueue underreports delivered bytes in its Stats — the class
// of bookkeeping bug the ledger exists to catch.
type miscountingQueue struct{ *DropTail }

func (m miscountingQueue) Stats() Stats {
	s := m.DropTail.Stats()
	s.DequeuedBytes /= 2
	return s
}

// leakyQueue silently discards every second delivered packet: the packet
// leaves the inner queue (and its stats) but never reaches the caller.
type leakyQueue struct {
	*DropTail
	n int
}

func (l *leakyQueue) Dequeue(now units.Time) *packet.Packet {
	p := l.DropTail.Dequeue(now)
	l.n++
	if p != nil && l.n%2 == 0 {
		return nil
	}
	return p
}

// lifoQueue delivers newest-first, violating FIFO order.
type lifoQueue struct {
	stack []*packet.Packet
	stats Stats
}

func (l *lifoQueue) Enqueue(p *packet.Packet, now units.Time) bool {
	p.Enqueued = now
	l.stack = append(l.stack, p)
	l.stats.EnqueuedPackets++
	l.stats.EnqueuedBytes += p.Size
	return true
}

func (l *lifoQueue) Dequeue(now units.Time) *packet.Packet {
	if len(l.stack) == 0 {
		return nil
	}
	p := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	l.stats.DequeuedPackets++
	l.stats.DequeuedBytes += p.Size
	return p
}

func (l *lifoQueue) Len() int { return len(l.stack) }

func (l *lifoQueue) Bytes() units.ByteSize {
	var b units.ByteSize
	for _, p := range l.stack {
		b += p.Size
	}
	return b
}

func (l *lifoQueue) Stats() Stats { return l.stats }

// TestAuditCatchesBrokenQueues is the liveness check for the ledger
// itself: each deliberately broken discipline must trip the named
// invariant. Without this, a silently dead auditor would make every green
// conservation test meaningless.
func TestAuditCatchesBrokenQueues(t *testing.T) {
	cases := []struct {
		name      string
		make      func() Queue
		invariant string
	}{
		{"miscounted-bytes", func() Queue { return miscountingQueue{NewDropTail(PacketLimit(16))} }, "dequeue-accounting"},
		{"leaked-packet", func() Queue { return &leakyQueue{DropTail: NewDropTail(PacketLimit(16))} }, "dequeue-accounting"},
		{"lifo-order", func() Queue { return &lifoQueue{} }, "fifo-order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			aud := audit.New()
			q := tc.make()
			b := NewBooks(q, aud, tc.name)
			for i := int64(0); i < 8; i++ {
				offer(q, b, mkpkt(i, 1000), ms(i))
			}
			for i := int64(0); i < 8; i++ {
				take(q, b, ms(10+i))
			}
			if aud.Count() == 0 {
				t.Fatalf("auditor missed a %s queue", tc.name)
			}
			found := false
			for _, v := range aud.Violations() {
				if v.Invariant == tc.invariant {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("no %q violation recorded; got %v", tc.invariant, aud.Violations())
			}
		})
	}
}
