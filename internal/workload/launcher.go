package workload

import (
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// Launcher is the one place a finite flow is wired, recorded, completed
// and unwired. Every generator embeds one and decides only when, where
// and how large; Records, Generated and Active are the Launcher's.
type Launcher struct {
	d       *topology.Dumbbell
	spec    tcp.Config // every flow's template; TotalSegments is set per flow
	records []*FlowRecord
	started int64
	active  int
}

// NewLauncher returns a launcher for flows on spec across d.
func NewLauncher(d *topology.Dumbbell, spec tcp.Config) *Launcher { return &Launcher{d: d, spec: spec} }

// Records returns one entry per launched flow, in launch order.
func (l *Launcher) Records() []*FlowRecord { return l.records }

// Generated returns the number of flows started so far.
func (l *Launcher) Generated() int64 { return l.started }

// Active returns the number of flows currently in flight.
func (l *Launcher) Active() int { return l.active }

// launch starts a flow of size segments across st at time now (the
// scheduler's clock) and records it. done, if not nil, runs when the last
// segment arrives, after the detach is posted — so a generator that
// schedules from done keeps its events behind the detach in (time, seq)
// order.
func (l *Launcher) launch(st *topology.Station, size int64, now units.Time, done func()) {
	rec := &FlowRecord{Size: size, Completed: units.Never}
	l.records = append(l.records, rec)
	l.start(rec, st, now, done)
}

// start is launch for a record the caller already holds in l.records
// (replay lists its flows before they start).
func (l *Launcher) start(rec *FlowRecord, st *topology.Station, now units.Time, done func()) {
	spec := l.spec
	spec.TotalSegments = rec.Size
	f := l.d.AddFlow(st, spec)
	rec.Start = now
	l.started++
	l.active++
	f.Receiver.OnComplete = func(now units.Time) {
		rec.Completed = now
		l.active--
		l.Detach(f)
		if done != nil {
			done()
		}
	}
	f.Sender.Start()
}

// Detach unwires f one station RTT from now, so packets in flight drain
// past the bottleneck, or when its sender finishes, whichever is later:
// the final ACK, which a delayed-ACK receiver may hold for up to 100 ms,
// must still reach the sender to cancel its RTO. A flow unwired then is
// quiescent, and the dumbbell reuses its agents. Until its sender finishes
// (a lost final ACK is resent on its RTO) the flow stays wired; a
// completion hook already on the sender still runs, before the unwiring.
func (l *Launcher) Detach(f *topology.Flow) {
	f.Station.Sched().PostAfter(f.Station.RTT, detacher{l.d}, 0, f)
}

// detacher is the actor behind Detach; its one event carries the flow.
type detacher struct{ d *topology.Dumbbell }

func (a detacher) OnEvent(_ int32, arg any) {
	f := arg.(*topology.Flow)
	if f.Sender.Finished() {
		a.d.RemoveFlow(f)
		return
	}
	prev := f.Sender.OnComplete
	f.Sender.OnComplete = func(now units.Time) {
		if prev != nil {
			prev(now)
		}
		a.d.RemoveFlow(f)
	}
}
