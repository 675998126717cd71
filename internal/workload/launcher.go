package workload

import (
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// Launcher is the one place a finite flow is wired, counted, completed
// and unwired. Every generator embeds one and decides only when, where
// and how large; Generated, Active and Window are the Launcher's. It
// keeps no state per flow beyond the flows in flight.
type Launcher struct {
	d        *topology.Dumbbell
	spec     tcp.Config // every flow's template; TotalSegments is set per flow
	from, to units.Time // the measured window; a generator's Start sets it
	// started and active count every flow; windowed counts those
	// launched in [from, to], completed those of them finished, and sum
	// their completion times.
	started                     int64
	active, windowed, completed int
	sum                         units.Duration
}

// Generated returns the number of flows started so far.
func (l *Launcher) Generated() int64 { return l.started }

// Active returns the number of flows currently in flight.
func (l *Launcher) Active() int { return l.active }

// Window implements Driver's Window. The sum is integer nanoseconds, so
// the order flows complete in cannot change the mean.
func (l *Launcher) Window() (afct units.Duration, completed, open int) {
	if l.completed > 0 {
		afct = l.sum / units.Duration(l.completed)
	}
	return afct, l.completed, l.windowed - l.completed
}

// launch starts a flow of size segments across st at time now (the
// scheduler's clock) and counts it. done, if not nil, runs when the last
// segment arrives, after the detach is posted — so a generator that
// schedules from done keeps its events behind the detach in (time, seq)
// order.
func (l *Launcher) launch(st *topology.Station, size int64, now units.Time, done func()) {
	spec := l.spec
	spec.TotalSegments = size
	f := l.d.AddFlow(st, spec)
	l.started++
	l.active++
	windowed := now >= l.from && now <= l.to
	if windowed {
		l.windowed++
	}
	f.Receiver.OnComplete = func(at units.Time) {
		if windowed {
			l.completed++
			l.sum += at.Sub(now)
		}
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
