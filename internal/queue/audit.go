package queue

import (
	"bufsim/internal/audit"
	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// Audited wraps a Queue with conservation-law checks. It maintains its own
// shadow counters from the operations it forwards — independent of the
// discipline's Stats — and cross-checks the two on every operation, so a
// discipline that miscounts (or leaks, duplicates, or reorders packets) is
// caught at the first operation where the books disagree. It forwards
// every call unchanged, so wrapping never perturbs a run.
type Audited struct {
	inner Queue
	aud   *audit.Auditor
	name  string

	// Shadow counters, observed at the wrapper boundary.
	offeredPkts   int64
	acceptedPkts  int64
	dequeuedPkts  int64
	offeredBytes  units.ByteSize
	acceptedBytes units.ByteSize
	dequeuedBytes units.ByteSize

	// FIFO-order check: enqueue stamps of dequeued packets must be
	// non-decreasing.
	lastEnqueued units.Time
	haveDequeued bool
}

// NewAudited wraps q so that every operation is checked against the
// conservation laws, reporting violations to aud under the given
// component name. A nil auditor yields a transparent wrapper.
func NewAudited(q Queue, aud *audit.Auditor, name string) *Audited {
	return &Audited{inner: q, aud: aud, name: "queue:" + name}
}

// Unwrap returns the wrapped Queue, so telemetry (Instrument) can reach
// the concrete discipline through the wrapper.
func (a *Audited) Unwrap() Queue { return a.inner }

// Enqueue implements Queue.
func (a *Audited) Enqueue(p *packet.Packet, now units.Time) bool {
	if p.Released() {
		// Not an offer the discipline should account for: the packet's
		// endpoint already gave it back to its pool (see packet.Pool).
		a.aud.Violationf(now, a.name, "packet-use-after-release",
			"offered a packet its endpoint had already released")
		return false
	}
	size := p.Size
	ok := a.inner.Enqueue(p, now)
	a.offeredPkts++
	a.offeredBytes += size
	if ok {
		a.acceptedPkts++
		a.acceptedBytes += size
	}
	a.check(now)
	return ok
}

// Dequeue implements Queue.
func (a *Audited) Dequeue(now units.Time) *packet.Packet {
	p := a.inner.Dequeue(now)
	if p != nil {
		if p.Released() {
			a.aud.Violationf(now, a.name, "packet-use-after-release",
				"a packet was released while it was queued")
		}
		a.dequeuedPkts++
		a.dequeuedBytes += p.Size
		if p.Enqueued > now {
			a.aud.Violationf(now, a.name, "sojourn-nonnegative",
				"dequeued packet stamped Enqueued=%v after now", p.Enqueued)
		}
		if a.haveDequeued && p.Enqueued < a.lastEnqueued {
			a.aud.Violationf(now, a.name, "fifo-order",
				"dequeued packet enqueued at %v after one enqueued at %v", p.Enqueued, a.lastEnqueued)
		}
		a.lastEnqueued = p.Enqueued
		a.haveDequeued = true
	}
	a.check(now)
	return p
}

// Len implements Queue.
func (a *Audited) Len() int { return a.inner.Len() }

// Bytes implements Queue.
func (a *Audited) Bytes() units.ByteSize { return a.inner.Bytes() }

// Stats implements Queue.
func (a *Audited) Stats() Stats { return a.inner.Stats() }

// check verifies the conservation laws relating the wrapper's shadow
// counters, the discipline's Stats, and the current queue contents.
func (a *Audited) check(now units.Time) {
	s := a.inner.Stats()
	qLen := int64(a.inner.Len())
	qBytes := a.inner.Bytes()

	// The discipline's acceptance/departure books must match what was
	// observed at the boundary.
	if s.EnqueuedPackets != a.acceptedPkts || s.EnqueuedBytes != a.acceptedBytes {
		a.aud.Violationf(now, a.name, "enqueue-accounting",
			"stats report %d pkts/%d B enqueued, observed %d pkts/%d B accepted",
			s.EnqueuedPackets, s.EnqueuedBytes, a.acceptedPkts, a.acceptedBytes)
	}
	if s.DequeuedPackets != a.dequeuedPkts || s.DequeuedBytes != a.dequeuedBytes {
		a.aud.Violationf(now, a.name, "dequeue-accounting",
			"stats report %d pkts/%d B dequeued, observed %d pkts/%d B",
			s.DequeuedPackets, s.DequeuedBytes, a.dequeuedPkts, a.dequeuedBytes)
	}

	// Drops split into rejections at the door (Enqueue returned false —
	// observed directly) and post-enqueue drops (CoDel's control law).
	// The discipline's total must cover the rejections.
	preDropPkts := a.offeredPkts - a.acceptedPkts
	preDropBytes := a.offeredBytes - a.acceptedBytes
	postDropPkts := s.DroppedPackets - preDropPkts
	postDropBytes := s.DroppedBytes - preDropBytes
	if postDropPkts < 0 || postDropBytes < 0 {
		a.aud.Violationf(now, a.name, "drop-accounting",
			"stats report %d pkts/%d B dropped, but %d pkts/%d B were rejected at enqueue",
			s.DroppedPackets, s.DroppedBytes, preDropPkts, preDropBytes)
		return // conservation below would double-report with garbage numbers
	}

	// Flow conservation: everything accepted is either delivered, dropped
	// after admission, or still queued — in packets and in bytes.
	if a.acceptedPkts != a.dequeuedPkts+postDropPkts+qLen {
		a.aud.Violationf(now, a.name, "packet-conservation",
			"accepted %d != dequeued %d + post-enqueue drops %d + queued %d",
			a.acceptedPkts, a.dequeuedPkts, postDropPkts, qLen)
	}
	if a.acceptedBytes != a.dequeuedBytes+postDropBytes+qBytes {
		a.aud.Violationf(now, a.name, "byte-conservation",
			"accepted %d B != dequeued %d B + post-enqueue drops %d B + queued %d B",
			a.acceptedBytes, a.dequeuedBytes, postDropBytes, qBytes)
	}
	if qLen == 0 && qBytes != 0 {
		a.aud.Violationf(now, a.name, "empty-queue-bytes", "Len()==0 but Bytes()==%d", qBytes)
	}
}
