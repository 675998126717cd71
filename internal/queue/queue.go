// Package queue implements the router output-queue disciplines the paper
// studies: FIFO with drop-tail (the primary discipline, §5.1) and RED (the
// "we expect our results to be valid for other queueing disciplines"
// claim). Queues are where the buffer-sizing question lives: the buffer
// limit handed to a queue is the B the paper sizes.
package queue

import (
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// Queue is an output-port packet queue. Enqueue either accepts the packet
// or drops it (returning false); the caller owns the clock, so queues are
// told the current time rather than holding a scheduler reference.
type Queue interface {
	// Enqueue offers p to the queue at time now. It returns false if the
	// packet was dropped.
	Enqueue(p *packet.Packet, now units.Time) bool
	// Dequeue removes and returns the head packet, or nil if empty.
	Dequeue(now units.Time) *packet.Packet
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the total bytes queued.
	Bytes() units.ByteSize
	// Stats returns cumulative acceptance/drop counters.
	Stats() Stats
}

// Stats are cumulative counters every discipline maintains.
type Stats struct {
	EnqueuedPackets int64
	DroppedPackets  int64
	DequeuedPackets int64
	EnqueuedBytes   units.ByteSize
	DroppedBytes    units.ByteSize
	DequeuedBytes   units.ByteSize
}

// DropRate returns the fraction of offered packets that were dropped.
func (s Stats) DropRate() float64 {
	offered := s.EnqueuedPackets + s.DroppedPackets
	if offered == 0 {
		return 0
	}
	return float64(s.DroppedPackets) / float64(offered)
}

// fifo is the shared packet FIFO under both disciplines: a ring buffer
// that grows on demand.
type fifo struct {
	buf   []*packet.Packet
	head  int
	count int
	bytes units.ByteSize
}

func (f *fifo) push(p *packet.Packet) {
	if f.count == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.count)%len(f.buf)] = p
	f.count++
	f.bytes += p.Size
}

func (f *fifo) pop() *packet.Packet {
	if f.count == 0 {
		return nil
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.count--
	f.bytes -= p.Size
	return p
}

func (f *fifo) grow() {
	n := len(f.buf) * 2
	if n == 0 {
		n = 64
	}
	nb := make([]*packet.Packet, n)
	for i := 0; i < f.count; i++ {
		nb[i] = f.buf[(f.head+i)%len(f.buf)]
	}
	f.buf = nb
	f.head = 0
}

// Limit expresses a buffer size either in packets or in bytes (router
// vendors quote both; the paper's tables use packets). The zero Limit
// never drops (the paper's "infinite buffer" baseline for Fig. 8).
type Limit struct {
	Packets int            // 0 means unlimited in packets
	Bytes   units.ByteSize // 0 means unlimited in bytes
}

// PacketLimit returns a Limit of n packets.
func PacketLimit(n int) Limit { return Limit{Packets: n} }

// ByteLimit returns a Limit of b bytes.
func ByteLimit(b units.ByteSize) Limit { return Limit{Bytes: b} }

// admits reports whether a queue currently holding (pkts, bytes) can accept
// another packet of size s under the limit.
func (l Limit) admits(pkts int, bytes units.ByteSize, s units.ByteSize) bool {
	if l.Packets > 0 && pkts+1 > l.Packets {
		return false
	}
	if l.Bytes > 0 && bytes+s > l.Bytes {
		return false
	}
	return true
}

// DropTail is the classic FIFO queue with tail drop.
type DropTail struct {
	limit Limit
	q     fifo
	stats Stats
}

// NewDropTail returns a drop-tail queue with the given buffer limit.
func NewDropTail(limit Limit) *DropTail {
	return &DropTail{limit: limit}
}

// Enqueue implements Queue.
func (d *DropTail) Enqueue(p *packet.Packet, now units.Time) bool {
	if !d.limit.admits(d.q.count, d.q.bytes, p.Size) {
		d.stats.DroppedPackets++
		if !mutateSkipDroppedBytes {
			d.stats.DroppedBytes += p.Size
		}
		return false
	}
	p.Enqueued = now
	d.q.push(p)
	d.stats.EnqueuedPackets++
	d.stats.EnqueuedBytes += p.Size
	return true
}

// Dequeue implements Queue.
func (d *DropTail) Dequeue(now units.Time) *packet.Packet {
	p := d.q.pop()
	if p != nil {
		d.stats.DequeuedPackets++
		d.stats.DequeuedBytes += p.Size
	}
	return p
}

// Len implements Queue.
func (d *DropTail) Len() int { return d.q.count }

// Bytes implements Queue.
func (d *DropTail) Bytes() units.ByteSize { return d.q.bytes }

// Stats implements Queue.
func (d *DropTail) Stats() Stats { return d.stats }

// Limit returns the configured buffer limit.
func (d *DropTail) Limit() Limit { return d.limit }
