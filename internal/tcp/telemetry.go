package tcp

import "bufsim/internal/metrics"

// cwndBuckets spans 1 to 2^19 segments in doubling steps — any window a
// simulated sender can reach.
var cwndBuckets = metrics.ExpBuckets(1, 2, 20)

// Telemetry aggregates per-flow sender counters into a metrics registry:
// segments sent, retransmits, timeouts, fast recoveries, ACK and duplicate
// ACK counts, ECN reductions, flow counts per congestion-control variant,
// and a histogram of congestion-window samples (one observation per ACK
// and per timeout, which a tracked sender makes itself).
//
// Construction with a nil registry returns nil, and every method is safe
// on a nil receiver, so callers track senders unconditionally and pay one
// nil check when metrics are disabled. Counter aggregation happens in a
// snapshot-time collector; only the cwnd observation rides the hot path,
// and only when telemetry is enabled. A tracked sender that is renewed
// for another flow (Sender.Renew) leaves its counters in retired.
type Telemetry struct {
	senders []*Sender
	retired Stats // the counters of tracked senders since renewed
	tracked int64
	cwnd    *metrics.Histogram

	segments, retransmits, timeouts, recoveries *metrics.Counter
	acks, dupAcks, ecnReductions                *metrics.Counter
	flows                                       *metrics.Counter
	byVariant                                   map[Variant]*metrics.Counter
	reg                                         *metrics.Registry
}

// NewTelemetry returns a sender aggregator publishing into reg, or nil if
// reg is nil.
func NewTelemetry(reg *metrics.Registry) *Telemetry {
	if reg == nil {
		return nil
	}
	t := &Telemetry{
		cwnd:          reg.Histogram("tcp.cwnd_segments", cwndBuckets),
		segments:      reg.Counter("tcp.segments_sent"),
		retransmits:   reg.Counter("tcp.retransmits"),
		timeouts:      reg.Counter("tcp.timeouts"),
		recoveries:    reg.Counter("tcp.fast_recoveries"),
		acks:          reg.Counter("tcp.acks_received"),
		dupAcks:       reg.Counter("tcp.dup_acks_received"),
		ecnReductions: reg.Counter("tcp.ecn_reductions"),
		flows:         reg.Counter("tcp.flows_tracked"),
		byVariant:     map[Variant]*metrics.Counter{},
		reg:           reg,
	}
	reg.OnCollect(t.collect)
	return t
}

// Track adds a sender to the aggregate; from then on the sender samples
// its congestion window into the histogram after every ACK and timeout.
func (t *Telemetry) Track(s *Sender) {
	if t == nil || s == nil {
		return
	}
	t.senders = append(t.senders, s)
	t.tracked++
	s.tel = t
	v := s.cfg.Variant
	c, ok := t.byVariant[v]
	if !ok {
		c = t.reg.Counter("tcp.flows." + v.String())
		t.byVariant[v] = c
	}
	c.Inc()
}

// retire folds s's counters into the totals and stops tracking it, before
// s is renewed. The newest senders retire first in a ramp-down, so the
// search starts at the end.
func (t *Telemetry) retire(s *Sender) {
	t.retired.add(s.stats)
	for i := len(t.senders) - 1; i >= 0; i-- {
		if t.senders[i] == s {
			last := len(t.senders) - 1
			t.senders[i] = t.senders[last]
			t.senders = t.senders[:last]
			return
		}
	}
}

// add sums o's counters into st.
func (st *Stats) add(o Stats) {
	st.SegmentsSent += o.SegmentsSent
	st.Retransmits += o.Retransmits
	st.Timeouts += o.Timeouts
	st.FastRecoveries += o.FastRecoveries
	st.AcksReceived += o.AcksReceived
	st.DupAcksReceived += o.DupAcksReceived
	st.ECNReductions += o.ECNReductions
}

func (t *Telemetry) collect() {
	sum := t.retired
	for _, s := range t.senders {
		sum.add(s.stats)
	}
	t.segments.Set(sum.SegmentsSent)
	t.retransmits.Set(sum.Retransmits)
	t.timeouts.Set(sum.Timeouts)
	t.recoveries.Set(sum.FastRecoveries)
	t.acks.Set(sum.AcksReceived)
	t.dupAcks.Set(sum.DupAcksReceived)
	t.ecnReductions.Set(sum.ECNReductions)
	t.flows.Set(t.tracked)
}
