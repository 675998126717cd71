package bufsim

import (
	"bufsim/internal/adversary"
	"bufsim/internal/experiment"
)

// AdversaryPattern names one worst-case traffic pattern from the
// adversarial harness: deterministic workloads built to break exactly
// one statistical assumption behind the RTTxC/sqrt(n) buffer rule
// (desynchronization, burst independence, a single bottleneck).
type AdversaryPattern = adversary.Pattern

// The registered adversarial patterns.
const (
	// AdversaryPulse is a cohort of phase-locked on/off CBR trains whose
	// combined on-phase rate exceeds the bottleneck.
	AdversaryPulse = adversary.PatternPulse
	// AdversarySyncAIMD is an AIMD cohort with identical RTTs and
	// simultaneous starts, so loss epochs stay shared.
	AdversarySyncAIMD = adversary.PatternSyncAIMD
	// AdversaryParkingLot load-balances flows over a multi-bottleneck
	// chain so that no single link is "the" bottleneck.
	AdversaryParkingLot = adversary.PatternParkingLot
)

// ParseAdversary resolves a pattern name or alias (case-insensitive).
func ParseAdversary(s string) (AdversaryPattern, error) { return adversary.ParsePattern(s) }

// AdversaryNames lists the canonical pattern names in registry order.
func AdversaryNames() []string { return adversary.PatternNames() }

// Adversary is one worst-case pattern against the buffer: pulse trains,
// an AIMD cohort or a parking lot, each built to break one assumption
// behind the sqrt(n) rule. Every flow's RTT is Link.RTT — equal RTTs are
// part of the attack, so there is no spread — and the patterns fix their
// own transport, so Scenario.RED and Scenario.Sender must stay zero.
// Warmup and Measure default to 10 s and 30 s.
type Adversary struct {
	Pattern AdversaryPattern
	// Flows is the cohort: pulse trains, AIMD flows, or flows per core
	// link for the parking lot.
	Flows int
}

func (t Adversary) lower(s Scenario, env experiment.RunEnv) (func() AdversaryResult, experiment.Path, error) {
	cfg := experiment.AdversaryScenario{
		Scenario:        s.over(s.Link.fixedPath(s.Warmup, s.Measure)),
		Pattern:         t.Pattern,
		AdversaryCohort: experiment.AdversaryCohort{N: t.Flows},
		BufferPackets:   s.BufferPackets,
		RunEnv:          env,
	}
	run := experiment.Defaults(cfg)
	return func() AdversaryResult { return experiment.RunAdversaryScenario(cfg) }, run.Path, firstErr(
		must(t.Pattern.Doc() != "", "Adversary.Pattern %v is not one of %v", t.Pattern, AdversaryNames()),
		must(t.Flows > 0, "Adversary.Flows must be positive (got %d)", t.Flows),
		must(t.Pattern != AdversaryPulse || run.PulsePeakFactor*float64(run.BottleneckRate) >= float64(t.Flows),
			"Adversary.Flows: %d pulse trains share %v x Scenario.Link.Rate; each needs 1 bit/s or more", t.Flows, run.PulsePeakFactor),
		unread("Adversary", "RED", s.RED),
		unread("Adversary", "Sender", s.Sender != Sender{}),
	)
}
