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
	DropTail
	cfg REDConfig

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
	r := &RED{DropTail: DropTail{limit: cfg.Limit}, cfg: cfg, count: -1, idle: true}
	r.self = r
	return r
}

// AvgQueue returns RED's current average-queue estimate in packets.
func (r *RED) AvgQueue() float64 { return r.avg }

// Admit implements FIFO.
func (r *RED) Admit(p *packet.Packet, now units.Time) bool {
	// Age the average across an idle period, as if m small packets had
	// departed; the idle flag clears whether or not aging is configured.
	if r.idle {
		if r.cfg.MeanPacketTime > 0 {
			m := float64(now.Sub(r.idleSince)) / float64(r.cfg.MeanPacketTime)
			if m > 0 {
				r.avg *= math.Pow(1-r.cfg.Wq, m)
			}
		}
		r.idle = false
	}
	r.avg = (1-r.cfg.Wq)*r.avg + r.cfg.Wq*float64(r.Len())

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
	// An early "drop" decision becomes a CE mark for ECN-capable packets,
	// committed only once the packet is admitted: a packet to be marked
	// can still be tail-dropped at the physical limit.
	mark := drop && r.cfg.MarkECN && p.Flags&packet.FlagECT != 0
	if drop && !mark {
		r.stats.DroppedPackets++
		r.stats.DroppedBytes += p.Size
		return false
	}
	if !r.DropTail.Admit(p, now) {
		r.count = 0 // forced tail drop: buffer physically full
		return false
	}
	if mark {
		p.Flags |= packet.FlagCE
		r.Marked++
	}
	return true
}

// Depart implements FIFO: a departure that empties the line starts an
// idle period.
func (r *RED) Depart(size units.ByteSize, now units.Time) {
	r.DropTail.Depart(size, now)
	if r.Len() == 0 {
		r.idle = true
		r.idleSince = now
	}
}
