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
	// MaxWindow caps each flow's window in segments (0: uncapped).
	MaxWindow int
}

func (s TraceSource) String() string {
	return fmt.Sprintf("trace(%d flows)", len(s.Flows))
}

// Bind implements Source; it panics on a trace ValidateFlows rejects.
func (s TraceSource) Bind(d *topology.Dumbbell, _ *sim.RNG, spec tcp.Config) Driver {
	if err := ValidateFlows(s.Flows); err != nil {
		panic(err.Error())
	}
	spec.MaxWindow = s.MaxWindow
	return &replayRun{Launcher: &Launcher{d: d, spec: spec}, flows: s.Flows, sched: d.Config().Sched}
}

// replayRun is a bound TraceSource: a typed event per flow start instead
// of a scheduled closure per flow.
type replayRun struct {
	*Launcher
	flows   []FlowSpec
	sched   *sim.Scheduler
	started bool
	stopped bool
	// next is the flow whose start event fires next: the events are
	// posted in trace order at non-decreasing times, and the kernel fires
	// them in (time, post) order.
	next int
}

// Start implements Driver: it anchors the trace's offsets at the current
// simulated time and spreads its flows across the stations round-robin.
func (r *replayRun) Start(from, to units.Time) {
	if r.started {
		panic("workload: trace driver started twice")
	}
	r.started = true
	r.from, r.to = from, to
	base := r.sched.Now()
	for _, spec := range r.flows {
		r.sched.PostAt(base.Add(spec.Start), r, 0, nil)
	}
}

// Stop implements Driver: flows not yet started are abandoned.
func (r *replayRun) Stop() { r.stopped = true }

// OnEvent implements sim.Actor: flow r.next's start time has come.
func (r *replayRun) OnEvent(int32, any) {
	if r.stopped {
		return
	}
	i := r.next
	r.next++
	r.launch(r.d.Station(i%r.d.NumStations()), r.flows[i].Size, r.sched.Now())
}
