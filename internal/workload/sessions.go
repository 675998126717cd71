package workload

import (
	"fmt"

	"bufsim/internal/sim"
	"bufsim/internal/tcp"
	"bufsim/internal/topology"
	"bufsim/internal/units"
)

// SessionSource describes a Harpoon-style traffic source (Sommers &
// Barford, the generator behind the paper's §5.2 lab experiment): a fixed
// population of sessions, each looping "transfer a heavy-tailed file,
// think for an exponential pause, repeat". The number of *active* flows
// fluctuates around an equilibrium set by the transfer and think times —
// exactly how the lab's "n flows" were produced, as opposed to the ns-2
// experiments' permanently-backlogged senders.
type SessionSource struct {
	// Sessions is the population size. Each session binds to a station
	// round-robin.
	Sessions int
	// Sizes is the file-size distribution in segments.
	Sizes SizeDist
	// MeanThink is the average pause between a session's transfers
	// (default 1 s).
	MeanThink units.Duration
	// MaxWindow caps each transfer's window in segments (0: uncapped).
	MaxWindow int
}

func (s SessionSource) String() string {
	return fmt.Sprintf("sessions(%d, %s, think=%s)", s.Sessions, s.Sizes, s.MeanThink)
}

// Bind implements Source: initial pauses, file sizes and think times are
// all drawn from rng.
func (s SessionSource) Bind(d *topology.Dumbbell, rng *sim.RNG, spec tcp.Config) Driver {
	if d == nil || rng == nil || s.Sizes == nil {
		panic("workload: SessionSource requires a dumbbell, an RNG and Sizes")
	}
	if s.Sessions <= 0 {
		panic(fmt.Sprintf("workload: Sessions = %d", s.Sessions))
	}
	if s.MeanThink <= 0 {
		s.MeanThink = units.Second
	}
	spec.MaxWindow = s.MaxWindow
	g := &Sessions{Launcher: &Launcher{d: d, spec: spec}, src: s, rng: rng}
	g.done = g.think
	return g
}

// Sessions is a bound SessionSource. Active is the number of transfers
// in flight — the equilibrium version of the paper's "number of
// concurrent flows" — and Generated less Active is the transfers
// completed.
type Sessions struct {
	*Launcher
	src     SessionSource
	rng     *sim.RNG
	running bool
}

// Start launches every session, desynchronized by an initial random think
// pause.
func (g *Sessions) Start(from, to units.Time) {
	if g.running {
		panic("workload: Sessions started twice")
	}
	g.running = true
	g.from, g.to = from, to
	for i := 0; i < g.src.Sessions; i++ {
		g.think(g.d.Station(i % g.d.NumStations()))
	}
}

// Stop lets in-flight transfers finish but schedules no more.
func (g *Sessions) Stop() { g.running = false }

// think posts the session's next transfer one exponential pause from
// now; it is also the launcher's done, so a session thinks again when
// its transfer completes.
func (g *Sessions) think(station *topology.Station) {
	pause := units.DurationFromSeconds(g.rng.Exp(g.src.MeanThink.Seconds()))
	station.Sched().PostAfter(pause, g, 0, station)
}

// OnEvent implements sim.Actor: the one event is a session's next
// transfer (arg: its *topology.Station), on the kernel's typed-event
// path, so a large session population schedules no per-event closures.
func (g *Sessions) OnEvent(_ int32, arg any) {
	if !g.running {
		return
	}
	station := arg.(*topology.Station)
	g.launch(station, g.src.Sizes.Sample(g.rng), station.Sched().Now())
}
