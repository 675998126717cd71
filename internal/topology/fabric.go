package topology

import (
	"fmt"
	"sync"

	"bufsim/internal/sim"
	"bufsim/internal/units"
)

// FabricConfig describes a fabric: several independent dumbbells
// ("planes"), each on its own scheduler. Planes exchange no packets, so
// they run in parallel, one goroutine each, and every plane keeps the
// exact schedule it has standalone.
type FabricConfig struct {
	// RNG seeds the planes: each plane receives its own fork, in plane
	// order, so a fabric's plane k reproduces a standalone dumbbell
	// built from the same fork sequence. May be nil when the plane
	// template needs no randomness (RTTMin == RTTMax).
	RNG *sim.RNG

	// Planes is the number of dumbbells.
	Planes int

	// Plane is the per-plane template. Sched and RNG are overwritten per
	// plane.
	Plane Config
}

// Fabric is a built set of planes. Drive workloads against each plane's
// Dumbbell, then Run the fabric.
type Fabric struct {
	planes []*Dumbbell
}

// NewFabric builds the planes, each on a new scheduler.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.Planes <= 0 {
		panic(fmt.Sprintf("topology: FabricConfig.Planes = %d", cfg.Planes))
	}
	f := &Fabric{planes: make([]*Dumbbell, 0, cfg.Planes)}
	for k := 0; k < cfg.Planes; k++ {
		pc := cfg.Plane
		pc.Sched = sim.NewScheduler()
		if cfg.RNG != nil {
			pc.RNG = cfg.RNG.Fork()
		}
		f.planes = append(f.planes, NewDumbbell(pc))
	}
	return f
}

// Run runs every plane's scheduler until `until`, each on its own
// goroutine, and returns when all of them have.
func (f *Fabric) Run(until units.Time) {
	var wg sync.WaitGroup
	for _, d := range f.planes {
		wg.Add(1)
		go func(s *sim.Scheduler) {
			defer wg.Done()
			s.Run(until)
		}(d.cfg.Sched)
	}
	wg.Wait()
}

// Planes returns the number of planes.
func (f *Fabric) Planes() int { return len(f.planes) }

// Plane returns plane k's dumbbell.
func (f *Fabric) Plane(k int) *Dumbbell { return f.planes[k] }
