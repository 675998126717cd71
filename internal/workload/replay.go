package workload

import (
	"fmt"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// FlowSpec is one flow of a recorded trace: when it starts and how many
// segments it carries. Start is an offset from wherever the replay
// begins, not an absolute instant — the driver anchors it to the
// simulated time of its Start.
type FlowSpec struct {
	Start units.Duration
	Size  int64 // segments
}

// ValidateFlows reports the first record that is not part of a timeline:
// a negative start, a start before the previous record's, or a size that
// is not positive (TCP reads a zero size as "never ends"). Every way a
// trace enters — ReadFlows, TraceSource.Bind, the public configs'
// Validate — applies it; an out-of-order record means a corrupted or
// mis-merged input, so it is reported instead of silently resorted.
func ValidateFlows(flows []FlowSpec) error {
	for i, f := range flows {
		switch {
		case f.Start < 0:
			return fmt.Errorf("workload: flow record %d: negative start %s", i, f.Start)
		case f.Size <= 0:
			return fmt.Errorf("workload: flow record %d: size %d out of range", i, f.Size)
		case i > 0 && f.Start < flows[i-1].Start:
			return fmt.Errorf("workload: flow record %d: start %s precedes record %d (%s); flow records must be ordered by start time", i, f.Start, i-1, flows[i-1].Start)
		}
	}
	return nil
}

// TraceSource replays a recorded flow trace as a Source. Replay is
// deterministic — the bound RNG is never consulted.
type TraceSource struct {
	// Flows is the trace, ordered by start offset (see ValidateFlows).
	Flows []FlowSpec
	// TCP is the per-flow template; TotalSegments is set per flow.
	TCP tcp.Config
}

func (s TraceSource) String() string {
	return fmt.Sprintf("trace(%d flows)", len(s.Flows))
}

// Bind implements Source; it panics on a trace ValidateFlows rejects.
func (s TraceSource) Bind(d *topology.Dumbbell, _ *sim.RNG) Driver {
	if err := ValidateFlows(s.Flows); err != nil {
		panic(err.Error())
	}
	return &replayRun{Launcher: NewLauncher(d), src: s, sched: d.Config().Sched}
}

// replayRun is a bound TraceSource: a typed event per flow start instead
// of a scheduled closure per flow.
type replayRun struct {
	*Launcher
	src     TraceSource
	sched   *sim.Scheduler
	stopped bool
}

// replayFlow is the start event's argument: which station to bind and
// where to record the outcome.
type replayFlow struct {
	st  *topology.Station
	rec *FlowRecord
}

// Start implements Driver: it anchors the trace's offsets at the current
// simulated time and spreads its flows across the stations round-robin.
// Every flow has its record from here on; one that has not started yet
// shows a zero Start and Never completion.
func (r *replayRun) Start() {
	if r.records != nil {
		panic("workload: trace driver started twice")
	}
	base := r.sched.Now()
	r.records = make([]*FlowRecord, len(r.src.Flows))
	for i, spec := range r.src.Flows {
		rec := &FlowRecord{Size: spec.Size, Completed: units.Never}
		r.records[i] = rec
		rf := &replayFlow{st: r.d.Station(i % r.d.NumStations()), rec: rec}
		r.sched.PostAt(base.Add(spec.Start), r, 0, rf)
	}
}

// Stop implements Driver: flows not yet started are abandoned.
func (r *replayRun) Stop() { r.stopped = true }

// OnEvent implements sim.Actor: one flow's start time has come.
func (r *replayRun) OnEvent(_ int32, arg any) {
	if r.stopped {
		return
	}
	rf := arg.(*replayFlow)
	r.start(rf.rec, rf.st, r.src.TCP, r.sched.Now(), nil)
}
