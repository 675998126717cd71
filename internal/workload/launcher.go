package workload

import (
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// Launcher is the one place a finite flow is wired, recorded, completed
// and unwired. Every generator embeds one and decides only when, where
// and how large; Records, Generated and Active are the Launcher's.
type Launcher struct {
	d       *topology.Dumbbell
	records []*FlowRecord
	started int64
	active  int
}

// NewLauncher returns a launcher for flows across d.
func NewLauncher(d *topology.Dumbbell) *Launcher { return &Launcher{d: d} }

// Records returns one entry per launched flow, in launch order.
func (l *Launcher) Records() []*FlowRecord { return l.records }

// Generated returns the number of flows started so far.
func (l *Launcher) Generated() int64 { return l.started }

// Active returns the number of flows currently in flight.
func (l *Launcher) Active() int { return l.active }

// launch starts a flow of size segments across st at time now (the clock
// of the scheduler view the caller runs on) and records it. done, if not
// nil, runs when the last segment arrives, after the detach is posted —
// so a generator that schedules from done keeps its events behind the
// detach in (time, seq) order.
func (l *Launcher) launch(st *topology.Station, spec tcp.Config, size int64, now units.Time, done func()) {
	rec := &FlowRecord{Size: size, Completed: units.Never}
	l.records = append(l.records, rec)
	l.start(rec, st, spec, now, done)
}

// Arrive is one Poisson arrival: a flow whose size is sampled from sizes
// and whose station is picked uniformly, drawn from rng in that order.
// The stationary source and the profile engine both arrive through it,
// which is what keeps a constant profile on the stationary schedule.
func (l *Launcher) Arrive(rng *sim.RNG, sizes SizeDist, spec tcp.Config, now units.Time) {
	size := sizes.Sample(rng)
	l.launch(l.d.Station(rng.Intn(l.d.NumStations())), spec, size, now, nil)
}

// start is launch for a record the caller already holds in l.records
// (replay lists its flows before they start).
func (l *Launcher) start(rec *FlowRecord, st *topology.Station, spec tcp.Config, now units.Time, done func()) {
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

// Detach unwires f one station RTT from now, so the final ACK still
// reaches the sender (which needs it to cancel its RTO and finish) and
// packets in flight drain past the bottleneck. The post goes through the
// station's view: completion fires in the station's shard, where a
// base-scheduler post would be illegal inside a parallel window.
func (l *Launcher) Detach(f *topology.Flow) {
	f.Station.Sched().PostAfter(f.Station.RTT, detacher{l.d}, 0, f)
}

// detacher is the actor behind Detach; its one event carries the flow.
type detacher struct{ d *topology.Dumbbell }

func (a detacher) OnEvent(_ int32, f any) { a.d.RemoveFlow(f.(*topology.Flow)) }
