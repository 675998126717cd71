package adversary

import (
	"fmt"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// SyncAIMD is the phase-synchronized AIMD cohort as a workload.Source:
// N identical long-lived TCP flows all started at the same instant. The
// paper's sqrt(n) reduction comes from sawtooths with "random (and
// independent) start times" desynchronizing (§3); this source removes
// both sources of independence at once. Started together over a
// dumbbell with RTTMin == RTTMax (no per-station draw), the cohort
// fills the buffer in phase, takes its losses in the same RTT, and
// halves together — the aggregate window swings with the full sawtooth
// amplitude, as if n were 1.
//
// The bound RNG is passed through to workload.StartLongLived but never
// drawn from (stagger is zero); any residual desynchronization comes
// only from the topology, which is the experiment's knob.
type SyncAIMD struct {
	// N is the cohort size; its flows run uncapped on the run's sender.
	N int
}

func (s SyncAIMD) String() string { return fmt.Sprintf("aimdsync(%d)", s.N) }

// Bind implements workload.Source.
func (s SyncAIMD) Bind(d *topology.Dumbbell, rng *sim.RNG, spec tcp.Config) workload.Driver {
	if s.N <= 0 {
		panic(fmt.Sprintf("adversary: SyncAIMD.N = %d", s.N))
	}
	spec.MaxWindow = 0
	return &SyncAIMDDriver{n: s.N, spec: spec, d: d, rng: rng}
}

// SyncAIMDDriver is the bound cohort.
type SyncAIMDDriver struct {
	n     int
	spec  tcp.Config
	d     *topology.Dumbbell
	rng   *sim.RNG
	flows []*topology.Flow
}

// Start implements workload.Driver: the whole cohort is posted at the
// current instant (zero stagger).
func (s *SyncAIMDDriver) Start(_, _ units.Time) {
	if s.flows != nil {
		panic("adversary: aimdsync driver started twice")
	}
	s.flows = workload.StartLongLived(s.d, s.n, s.spec, s.rng, 0)
}

// Stop implements workload.Driver: long-lived flows run until the
// simulation ends.
func (s *SyncAIMDDriver) Stop() {}

// Active implements workload.Driver.
func (s *SyncAIMDDriver) Active() int { return len(s.flows) }

// Generated implements workload.Driver.
func (s *SyncAIMDDriver) Generated() int64 { return int64(len(s.flows)) }

// Window implements workload.Driver: the cohort never completes.
func (s *SyncAIMDDriver) Window() (units.Duration, int, int) { return 0, 0, 0 }

// Flows exposes the cohort for per-flow inspection (lockstep checks,
// window sampling).
func (s *SyncAIMDDriver) Flows() []*topology.Flow { return s.flows }
