package queue

import (
	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// Books is a queue's ledger kept by its one caller, the link: what it
// offered and what was accepted, and what departed, in packets and in
// bytes. It keeps these apart from the discipline's Stats and
// cross-checks the two, and Len, Bytes and the limit, after every entry,
// so a discipline that miscounts (or leaks, duplicates, reorders or
// overfills) is caught at the first entry where the books disagree. It
// only reads the queue, so keeping it never perturbs a run.
type Books struct {
	q     Queue
	aud   *audit.Auditor
	name  string
	limit Limit // zero when the queue does not say

	offeredPkts   int64
	acceptedPkts  int64
	dequeuedPkts  int64
	offeredBytes  units.ByteSize
	acceptedBytes units.ByteSize
	dequeuedBytes units.ByteSize

	// FIFO-order check: enqueue stamps of departures must be
	// non-decreasing.
	lastEnqueued units.Time
	haveDequeued bool
}

// NewBooks returns the ledger of q, reporting violations to aud under
// the given component name.
func NewBooks(q Queue, aud *audit.Auditor, name string) *Books {
	b := &Books{q: q, aud: aud, name: "queue:" + name}
	if l, ok := q.(interface{ Limit() Limit }); ok {
		b.limit = l.Limit()
	}
	return b
}

// Offer enters the outcome of offering q a packet of the given size at
// now (Admit or Enqueue).
func (b *Books) Offer(size units.ByteSize, accepted bool, now units.Time) {
	b.offeredPkts++
	b.offeredBytes += size
	if accepted {
		b.acceptedPkts++
		b.acceptedBytes += size
	}
	b.check(now)
}

// Depart enters the departure at now of a packet of the given size that
// joined q at enq (Depart, or what Dequeue returned).
func (b *Books) Depart(size units.ByteSize, enq, now units.Time) {
	b.dequeuedPkts++
	b.dequeuedBytes += size
	if enq > now {
		b.aud.Violationf(now, b.name, "sojourn-nonnegative",
			"dequeued packet stamped Enqueued=%v after now", enq)
	}
	if b.haveDequeued && enq < b.lastEnqueued {
		b.aud.Violationf(now, b.name, "fifo-order",
			"dequeued packet enqueued at %v after one enqueued at %v", enq, b.lastEnqueued)
	}
	b.lastEnqueued, b.haveDequeued = enq, true
	b.check(now)
}

// Dequeued enters what Dequeue returned at now: nil departs nothing, but
// an AQM may have dropped at dequeue, so the books are checked anyway.
func (b *Books) Dequeued(p *packet.Packet, now units.Time) {
	if p == nil {
		b.check(now)
		return
	}
	b.Depart(p.Size, p.Enqueued, now)
}

// check verifies the conservation laws relating the ledger, the
// discipline's Stats, and the current queue contents.
func (b *Books) check(now units.Time) {
	s := b.q.Stats()
	qLen := int64(b.q.Len())
	qBytes := b.q.Bytes()

	// The discipline's acceptance/departure books must match what its
	// caller saw.
	if s.EnqueuedPackets != b.acceptedPkts || s.EnqueuedBytes != b.acceptedBytes {
		b.aud.Violationf(now, b.name, "enqueue-accounting",
			"stats report %d pkts/%d B enqueued, observed %d pkts/%d B accepted",
			s.EnqueuedPackets, s.EnqueuedBytes, b.acceptedPkts, b.acceptedBytes)
	}
	if s.DequeuedPackets != b.dequeuedPkts || s.DequeuedBytes != b.dequeuedBytes {
		b.aud.Violationf(now, b.name, "dequeue-accounting",
			"stats report %d pkts/%d B dequeued, observed %d pkts/%d B",
			s.DequeuedPackets, s.DequeuedBytes, b.dequeuedPkts, b.dequeuedBytes)
	}
	if lim := b.limit; lim.Packets > 0 && qLen > int64(lim.Packets) || lim.Bytes > 0 && qBytes > lim.Bytes {
		b.aud.Violationf(now, b.name, "backlog-limit",
			"%d packets (%d B) queued against the limit %+v", qLen, qBytes, lim)
	}

	// Drops split into rejections at the door (the offer was refused —
	// observed directly) and post-enqueue drops (CoDel's control law).
	// The discipline's total must cover the rejections.
	preDropPkts := b.offeredPkts - b.acceptedPkts
	preDropBytes := b.offeredBytes - b.acceptedBytes
	postDropPkts := s.DroppedPackets - preDropPkts
	postDropBytes := s.DroppedBytes - preDropBytes
	if postDropPkts < 0 || postDropBytes < 0 {
		b.aud.Violationf(now, b.name, "drop-accounting",
			"stats report %d pkts/%d B dropped, but %d pkts/%d B were rejected at enqueue",
			s.DroppedPackets, s.DroppedBytes, preDropPkts, preDropBytes)
		return // conservation below would double-report with garbage numbers
	}

	// Flow conservation: everything accepted is either delivered, dropped
	// after admission, or still queued — in packets and in bytes.
	if b.acceptedPkts != b.dequeuedPkts+postDropPkts+qLen {
		b.aud.Violationf(now, b.name, "packet-conservation",
			"accepted %d != dequeued %d + post-enqueue drops %d + queued %d",
			b.acceptedPkts, b.dequeuedPkts, postDropPkts, qLen)
	}
	if b.acceptedBytes != b.dequeuedBytes+postDropBytes+qBytes {
		b.aud.Violationf(now, b.name, "byte-conservation",
			"accepted %d B != dequeued %d B + post-enqueue drops %d B + queued %d B",
			b.acceptedBytes, b.dequeuedBytes, postDropBytes, qBytes)
	}
	if qLen == 0 && qBytes != 0 {
		b.aud.Violationf(now, b.name, "empty-queue-bytes", "Len()==0 but Bytes()==%d", qBytes)
	}
}
