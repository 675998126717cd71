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

// Ring is a first-in first-out buffer of values, circular, doubled when
// full: it holds at most the longest line it has seen. The disciplines
// hold their packets in one, and a link its waiting packets' times.
type Ring[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return r.n }

// Head returns the oldest value; the ring must not be empty.
func (r *Ring[T]) Head() T { return r.buf[r.head] }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		nb := make([]T, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = nb, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest value, or the zero value if empty.
func (r *Ring[T]) Pop() (v T) {
	if r.n == 0 {
		return v
	}
	v, r.buf[r.head] = r.buf[r.head], v
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
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
func (l Limit) admits(pkts int, bytes, s units.ByteSize) bool {
	return (l.Packets <= 0 || pkts < l.Packets) && (l.Bytes <= 0 || bytes+s <= l.Bytes)
}

// FIFO is a discipline that decides at arrival and serves in arrival
// order: drop-tail and RED. A link that knows when each packet it admits
// starts transmission drives it with Admit and Depart and holds the
// waiting line itself (see link.Link); the queue keeps only its counters,
// and Len and Bytes are what was admitted and has not departed. Enqueue
// and Dequeue are Admit and Depart around a packet Ring of its own.
type FIFO interface {
	Queue
	// Admit decides whether p, arriving at now, joins the line; if so it
	// stamps p.Enqueued and counts it, but does not hold it.
	Admit(p *packet.Packet, now units.Time) bool
	// Depart takes the head of the line, of the given size, into
	// service at now.
	Depart(size units.ByteSize, now units.Time)
	// Limit returns the buffer limit the line is held to.
	Limit() Limit
}

// DropTail is the classic FIFO queue with tail drop, and the books and
// packet Ring the other disciplines build on: RED is a DropTail that
// drops or marks early, and CoDel holds one whose head it may drop.
type DropTail struct {
	// self is the discipline whose Admit and Depart Enqueue and Dequeue
	// call: the DropTail itself, or the RED built on it.
	self  FIFO
	limit Limit
	stats Stats
	held  Ring[*packet.Packet]
}

// NewDropTail returns a drop-tail queue with the given buffer limit.
func NewDropTail(limit Limit) *DropTail {
	d := &DropTail{limit: limit}
	d.self = d
	return d
}

// Admit implements FIFO.
func (d *DropTail) Admit(p *packet.Packet, now units.Time) bool {
	if !d.limit.admits(d.Len(), d.Bytes(), p.Size) {
		d.stats.DroppedPackets++
		if !mutateSkipDroppedBytes {
			d.stats.DroppedBytes += p.Size
		}
		return false
	}
	p.Enqueued = now
	d.stats.EnqueuedPackets++
	d.stats.EnqueuedBytes += p.Size
	return true
}

// Depart implements FIFO.
func (d *DropTail) Depart(size units.ByteSize, _ units.Time) {
	d.stats.DequeuedPackets++
	d.stats.DequeuedBytes += size
}

// Enqueue implements Queue.
func (d *DropTail) Enqueue(p *packet.Packet, now units.Time) bool {
	if !d.self.Admit(p, now) {
		return false
	}
	d.held.Push(p)
	return true
}

// Dequeue implements Queue.
func (d *DropTail) Dequeue(now units.Time) *packet.Packet {
	p := d.held.Pop()
	if p != nil {
		d.self.Depart(p.Size, now)
	}
	return p
}

// Len implements Queue.
func (d *DropTail) Len() int { return int(d.stats.EnqueuedPackets - d.stats.DequeuedPackets) }

// Bytes implements Queue.
func (d *DropTail) Bytes() units.ByteSize { return d.stats.EnqueuedBytes - d.stats.DequeuedBytes }

// Stats implements Queue.
func (d *DropTail) Stats() Stats { return d.stats }

// Limit implements FIFO.
func (d *DropTail) Limit() Limit { return d.limit }
