package workload

import (
	"bufsim/internal/sim"
	"bufsim/internal/tcp"
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
	// and returns the stopped driver; the caller starts it. Every flow
	// runs the run's sender template spec; the source sets only each
	// flow's MaxWindow and TotalSegments.
	Bind(d *topology.Dumbbell, rng *sim.RNG, spec tcp.Config) Driver
	// String describes the workload for reports and tables.
	String() string
}

// Driver is a bound, runnable workload.
type Driver interface {
	// Start begins generating traffic at the current simulated time;
	// Window counts the finite flows launched in [from, to].
	Start(from, to units.Time)
	// Stop halts new flow launches: Generated gains no count after it.
	// In-flight flows run on for as long as the simulation does; an
	// experiment's drain runs it at most its Drain past the window, and
	// ends sooner once Window has no flow open.
	Stop()
	// Active returns the number of flows currently in flight — the
	// paper's instantaneous n(t).
	Active() int
	// Generated returns the total number of flows started so far.
	Generated() int64
	// Window returns, of the finite flows launched in the window Start
	// was given, the mean completion time of those completed, how many
	// completed and how many are still open (censored, if the run ends).
	Window() (afct units.Duration, completed, open int)
}
