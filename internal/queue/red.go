package queue

import (
	"math"

	"bufsim/internal/packet"
	"bufsim/internal/units"
)

// REDConfig parameterizes Random Early Detection (Floyd & Jacobson 1993),
// the paper's reference for an alternative discipline under which the
// sqrt(n) result is still expected to hold.
type REDConfig struct {
	Limit Limit // hard buffer limit (tail-drop beyond this)

	MinThresh float64 // avg queue (packets) below which no packet drops
	MaxThresh float64 // avg queue above which every packet drops
	MaxP      float64 // drop probability at MaxThresh
	Wq        float64 // EWMA weight for the average queue estimate

	// MeanPacketTime is the transmission time of an average packet on
	// the outgoing link; RED uses it to age the average across idle
	// periods, per the original paper.
	MeanPacketTime units.Duration

	// Rand supplies uniform variates in [0,1); it must be deterministic
	// for reproducible runs.
	Rand func() float64

	// MarkECN makes RED mark ECN-capable packets (set CE) instead of
	// early-dropping them, per RFC 3168. Packets without ECT, and
	// forced tail drops at the physical limit, are still dropped.
	MarkECN bool
}

// DefaultRED returns the conventional "gentle-ish" configuration scaled to
// a buffer of limitPkts packets: min = limit/4 (at least 5 packets),
// max = 3*limit/4, maxP = 0.1, wq = 0.002.
func DefaultRED(limitPkts int, meanPktTime units.Duration, rand func() float64) REDConfig {
	minTh := math.Max(float64(limitPkts)/4, 5)
	maxTh := math.Max(3*float64(limitPkts)/4, minTh+1)
	return REDConfig{
		Limit:          PacketLimit(limitPkts),
		MinThresh:      minTh,
		MaxThresh:      maxTh,
		MaxP:           0.1,
		Wq:             0.002,
		MeanPacketTime: meanPktTime,
		Rand:           rand,
	}
}

// RED implements the Random Early Detection AQM discipline.
type RED struct {
	cfg   REDConfig
	q     fifo
	stats Stats

	avg       float64 // EWMA of the queue length in packets
	count     int     // packets since the last early drop
	idleSince units.Time
	idle      bool

	// Marked counts packets CE-marked instead of dropped (MarkECN).
	Marked int64
}

// NewRED returns a RED queue. The config's Rand must be non-nil.
func NewRED(cfg REDConfig) *RED {
	if cfg.Rand == nil {
		panic("queue: RED requires a random source")
	}
	if cfg.Wq <= 0 || cfg.Wq > 1 {
		panic("queue: RED Wq must be in (0,1]")
	}
	return &RED{cfg: cfg, count: -1, idle: true}
}

// AvgQueue returns RED's current average-queue estimate in packets.
func (r *RED) AvgQueue() float64 { return r.avg }

// Enqueue implements Queue.
func (r *RED) Enqueue(p *packet.Packet, now units.Time) bool {
	// Age the average across an idle period: the queue was empty, so the
	// average decays as if m small packets had departed. The idle flag is
	// cleared whether or not aging is configured (MeanPacketTime > 0) —
	// leaving it set would make a later Dequeue's idleSince stamp stale.
	if r.idle {
		if r.cfg.MeanPacketTime > 0 {
			m := float64(now.Sub(r.idleSince)) / float64(r.cfg.MeanPacketTime)
			if m > 0 {
				r.avg *= math.Pow(1-r.cfg.Wq, m)
			}
		}
		r.idle = false
	}
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*float64(r.q.count)

	drop := false
	switch {
	case r.avg >= r.cfg.MaxThresh:
		drop = true
		r.count = 0
	case r.avg > r.cfg.MinThresh:
		r.count++
		pb := r.cfg.MaxP * (r.avg - r.cfg.MinThresh) / (r.cfg.MaxThresh - r.cfg.MinThresh)
		// Spread drops uniformly between early drops (Floyd's pa).
		pa := pb / math.Max(1-float64(r.count)*pb, 1e-12)
		if pa >= 1 || r.cfg.Rand() < pa {
			drop = true
			r.count = 0
		}
	default:
		r.count = -1
	}
	// An early "drop" decision becomes a CE mark for ECN-capable packets —
	// but the mark is only committed after the packet is admitted. A marked
	// packet can still be forced-tail-dropped at the limit check below, and
	// committing early would leave CE set (and Marked incremented) on a
	// packet that never entered the queue.
	mark := false
	if drop && r.cfg.MarkECN && p.Flags&packet.FlagECT != 0 {
		mark = true
		drop = false
	}
	if !drop && !r.cfg.Limit.admits(r.q.count, r.q.bytes, p.Size) {
		drop = true // forced tail drop: buffer physically full
		mark = false
		r.count = 0
	}
	if drop {
		r.stats.DroppedPackets++
		r.stats.DroppedBytes += p.Size
		return false
	}
	if mark {
		p.Flags |= packet.FlagCE
		r.Marked++
	}
	p.Enqueued = now
	r.q.push(p)
	r.stats.EnqueuedPackets++
	r.stats.EnqueuedBytes += p.Size
	return true
}

// Dequeue implements Queue.
func (r *RED) Dequeue(now units.Time) *packet.Packet {
	p := r.q.pop()
	if p != nil {
		r.stats.DequeuedPackets++
		r.stats.DequeuedBytes += p.Size
		if r.q.count == 0 {
			r.idle = true
			r.idleSince = now
		}
	}
	return p
}

// Len implements Queue.
func (r *RED) Len() int { return r.q.count }

// Bytes implements Queue.
func (r *RED) Bytes() units.ByteSize { return r.q.bytes }

// Stats implements Queue.
func (r *RED) Stats() Stats { return r.stats }
