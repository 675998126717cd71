package workload

import (
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// Launcher is the one place a finite flow is wired, counted, completed
// and unwired. Every generator embeds one and decides only when, where
// and how large; Generated, Active and Window are the Launcher's. It
// keeps no state per flow beyond the flows in flight, each in a record
// it recycles.
type Launcher struct {
	d        *topology.Dumbbell
	spec     tcp.Config // every flow's template; TotalSegments is set per flow
	from, to units.Time // the measured window; a generator's Start sets it
	// done, if not nil, runs when a flow's last segment arrives, with
	// the flow's station, after the detach is posted — so a generator
	// that schedules from done keeps its events behind the detach in
	// (time, seq) order.
	done func(*topology.Station)
	// started and active count every flow; windowed counts those
	// launched in [from, to], completed those of them finished, and sum
	// their completion times.
	started                     int64
	active, windowed, completed int
	sum                         units.Duration
	// free holds the records of flows unwired, for the next launches.
	free []*inFlight
}

// inFlight is the launcher's record of one flow from its launch until it
// is unwired: when it started, whether the window counts it, and a
// completion hook already on its sender when the detach found it still
// running. complete and unwire are the record's methods, bound once, so
// that a recycled record costs its flow no allocation.
type inFlight struct {
	l                *Launcher
	f                *topology.Flow
	start            units.Time
	windowed         bool
	prev             func(units.Time)
	complete, unwire func(units.Time)
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
// scheduler's clock) and counts it.
func (l *Launcher) launch(st *topology.Station, size int64, now units.Time) {
	spec := l.spec
	spec.TotalSegments = size
	f := l.d.AddFlow(st, spec)
	l.started++
	l.active++
	r := l.record(f)
	r.start, r.windowed = now, now >= l.from && now <= l.to
	if r.windowed {
		l.windowed++
	}
	f.Receiver.OnComplete = r.complete
	f.Sender.Start()
}

// record returns a record for f, recycled if one is free.
func (l *Launcher) record(f *topology.Flow) *inFlight {
	var r *inFlight
	if n := len(l.free); n > 0 {
		r = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		r = &inFlight{l: l}
		r.complete, r.unwire = r.onComplete, r.remove
	}
	r.f = f
	return r
}

// onComplete counts the flow's completion at at and detaches it.
func (r *inFlight) onComplete(at units.Time) {
	l := r.l
	if r.windowed {
		l.completed++
		l.sum += at.Sub(r.start)
	}
	l.active--
	r.detach()
	if l.done != nil {
		l.done(r.f.Station)
	}
}

// Detach unwires f one station RTT from now, so packets in flight drain
// past the bottleneck, or when its sender finishes, whichever is later:
// the final ACK, which a delayed-ACK receiver may hold for up to 100 ms,
// must still reach the sender to cancel its RTO. A flow unwired then is
// quiescent, and the dumbbell reuses it, agents and all. Until its
// sender finishes (a lost final ACK is resent on its RTO) the flow stays
// wired; a completion hook already on the sender still runs, before the
// unwiring.
func (l *Launcher) Detach(f *topology.Flow) { l.record(f).detach() }

func (r *inFlight) detach() { r.f.Station.Sched().PostAfter(r.f.Station.RTT, r, 0, nil) }

// OnEvent is the detach, one station RTT on: the flow is unwired now if
// its sender has finished, else when it does.
func (r *inFlight) OnEvent(int32, any) {
	if snd := r.f.Sender; !snd.Finished() {
		r.prev, snd.OnComplete = snd.OnComplete, r.unwire
		return
	}
	r.remove(0)
}

// remove runs the sender's earlier completion hook, if it had one,
// unwires the flow and frees the record.
func (r *inFlight) remove(now units.Time) {
	if r.prev != nil {
		r.prev(now)
	}
	l := r.l
	l.d.RemoveFlow(r.f)
	r.f, r.prev = nil, nil
	l.free = append(l.free, r)
}
