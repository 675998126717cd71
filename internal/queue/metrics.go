package queue

import "bufsim/internal/metrics"

// Instrument registers q's telemetry into reg under name (e.g.
// "bottleneck"): the cumulative acceptance/drop counters every discipline
// maintains, the current occupancy, and discipline-specific extras — ECN
// marks and the average-queue estimate for RED, control-law drops for
// CoDel — all published by a snapshot-time collector. Peak occupancy and
// sojourn times are the link's (see link.Instrument). A nil registry is a
// no-op.
func Instrument(reg *metrics.Registry, name string, q Queue) {
	if reg == nil || q == nil {
		return
	}
	enq := reg.Counter(name + ".enqueued_packets")
	deq := reg.Counter(name + ".dequeued_packets")
	drops := reg.Counter(name + ".dropped_packets")
	dropBytes := reg.Counter(name + ".dropped_bytes")
	occ := reg.Gauge(name + ".occupancy_packets")
	occBytes := reg.Gauge(name + ".occupancy_bytes")

	var extra func()
	switch t := q.(type) {
	case *RED:
		marks := reg.Counter(name + ".ecn_marked_packets")
		avg := reg.Gauge(name + ".red_avg_queue_packets")
		extra = func() {
			marks.Set(t.Marked)
			avg.Set(t.AvgQueue())
		}
	case *CoDel:
		ctrl := reg.Counter(name + ".codel_sojourn_drops")
		extra = func() { ctrl.Set(t.SojournDrops) }
	}

	reg.OnCollect(func() {
		st := q.Stats()
		enq.Set(st.EnqueuedPackets)
		deq.Set(st.DequeuedPackets)
		drops.Set(st.DroppedPackets)
		dropBytes.Set(int64(st.DroppedBytes))
		occ.Set(float64(q.Len()))
		occBytes.Set(float64(q.Bytes()))
		if extra != nil {
			extra()
		}
	})
}
