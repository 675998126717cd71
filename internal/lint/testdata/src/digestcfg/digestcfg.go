// Package digestcfg is the digestfield fixture: config fields the
// runcache digest silently skips (func/chan/unsafe kinds) and shapes it
// panics on (nested funcs, non-scalar map keys) are violations wherever
// they sit outside a digest-ignored type; fields of a DigestIgnore-marked
// type and digestable fields are not — and a struct that merely embeds
// the marked type is not exempt itself.
package digestcfg

import (
	"context"

	"bufsim/internal/units"
)

// Env mirrors experiment.RunEnv: observers and execution policy, kept
// out of the digest by the marker method its type declares.
type Env struct {
	Observer func(int)       // fine here: the whole type is skipped
	Progress chan float64    // likewise
	Ctx      context.Context // likewise
	Workers  int
}

// DigestIgnore marks Env as invisible to runcache.Key.
func (Env) DigestIgnore() {}

// GoodConfig exercises every digestable shape.
type GoodConfig struct {
	N        int
	Load     float64
	Name     string
	RTT      units.Duration
	Sizes    []units.ByteSize
	ByName   map[string]float64
	Nested   goodNested
	MaybePtr *goodNested
	Dist     interface{ Sample() float64 }

	Env // ignored by type: observers and execution policy

	hidden func() // unexported fields are skipped by design
}

type goodNested struct {
	Depth int
}

// Flavor mirrors a registry-driven enum such as a congestion-control
// variant: a named integer is a scalar to the digest, alone, in a
// slice, or as a map key.
type Flavor int

// PointConfig mirrors a sweep grid point that holds a full scenario
// config: the digest skips the marked type at any depth of the walk,
// under an embedded field or a named one, so the observer fields below
// must be honoured, not reported.
type PointConfig struct {
	Scenario scenarioConfig
	Variants []Flavor
	ByFlavor map[Flavor]float64
	Target   float64
	Sweep    Env // a named field of the marked type is skipped too
}

// scenarioConfig is unexported, so it is only checked through the
// exported configs that reach it.
type scenarioConfig struct {
	N       int
	Variant Flavor
	Env     // ignored at depth
}

// RateConfig mirrors a rate-driven controller config whose pacing hook
// was declared beside the semantic fields instead of inside Env: a
// func-typed knob silently disappears from the cache key, which is
// exactly the hazard this analyzer exists to catch. Being named like an
// observer does not help — the rule goes by type.
type RateConfig struct {
	Gain       float64
	MinRTT     units.Duration
	PacingHook func(float64) // want `RateConfig\.PacingHook \(kind func\) is silently skipped by the runcache digest`
	Observer   func(int)     // want `RateConfig\.Observer \(kind func\) is silently skipped by the runcache digest`
	Env
}

// WrappedConfig holds a scenario that embeds Env. Embedding promotes
// DigestIgnore into leakyScenario's method set, but the digest (and so
// this analyzer) only honours a type that declares the marker itself:
// the scenario is still walked, and its hook is still a hazard.
type WrappedConfig struct {
	Inner leakyScenario // want `WrappedConfig\.Inner\.Fn \(kind func\) is silently skipped`
}

type leakyScenario struct {
	N  int
	Fn func()
	Env
}

// BadConfig collects the hazards.
type BadConfig struct {
	Hook  func()            // want `BadConfig\.Hook \(kind func\) is silently skipped by the runcache digest`
	Done  chan struct{}     // want `BadConfig\.Done \(kind chan\) is silently skipped by the runcache digest`
	Hooks []func()          // want `BadConfig\.Hooks\[\] reaches a func value`
	ByKey map[[2]int]string // want `BadConfig\.ByKey has map key type`
	Sub   badNested         // want `BadConfig\.Sub\.Fn \(kind func\) is silently skipped`
	Env
}

type badNested struct {
	Fn func()
}
