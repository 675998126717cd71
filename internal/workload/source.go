package workload

import (
	"bufsim/internal/sim"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// Source is a declarative traffic description: pure data (digestable by
// the run cache) that binds onto a dumbbell to produce a Driver. Bind is
// the only constructor a generator has: stationary Poisson short flows
// (PoissonSource), Harpoon sessions (SessionSource), recorded-trace
// replay (TraceSource), the time-varying profile engine and the
// adversarial patterns are all built this way, so an experiment can grid
// over workloads the way it grids over buffer sizes.
//
// Binding must be deterministic: the same source bound with the same
// seed produces the same flow schedule, packet for packet.
type Source interface {
	// Bind wires the workload onto d, drawing all randomness from rng,
	// and returns the stopped driver; the caller starts it.
	Bind(d *topology.Dumbbell, rng *sim.RNG) Driver
	// String describes the workload for reports and tables.
	String() string
}

// Driver is a bound, runnable workload.
type Driver interface {
	// Start begins generating traffic at the current simulated time.
	Start()
	// Stop halts new flow launches; in-flight flows run to completion.
	Stop()
	// Active returns the number of flows currently in flight — the
	// paper's instantaneous n(t).
	Active() int
	// Generated returns the total number of flows started so far.
	Generated() int64
	// Records returns one entry per launched finite flow, in launch
	// order, with completion times filling in as flows finish.
	Records() []*FlowRecord
}

// RecordAFCT returns the average flow completion time over records whose
// flow started in [from, to], along with how many such flows completed
// and how many did not (censored). Censored flows are excluded from the
// average, so callers should drain the system (or report incomplete)
// before trusting the number.
func RecordAFCT(records []*FlowRecord, from, to units.Time) (afct units.Duration, completed, censored int) {
	var sum units.Duration
	for _, r := range records {
		if r.Start < from || r.Start > to {
			continue
		}
		if r.Completed == units.Never {
			censored++
			continue
		}
		sum += r.Duration()
		completed++
	}
	if completed == 0 {
		return 0, 0, censored
	}
	return sum / units.Duration(completed), completed, censored
}
