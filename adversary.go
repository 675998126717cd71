package bufsim

import (
	"fmt"

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

// AdversarySimulation configures SimulateAdversary: one adversarial
// pattern against one buffer. Flows is the cohort size (pulse trains,
// AIMD flows, or flows per core link for the parking lot). The Link's
// RTT is every flow's propagation delay — equal RTTs are part of the
// attack, so there is no spread knob here.
type AdversarySimulation struct {
	Seed          int64
	Pattern       AdversaryPattern
	Link          Link
	Flows         int
	BufferPackets int
	Warmup        Duration
	Measure       Duration
}

// Validate reports the first configuration error, or nil.
func (s AdversarySimulation) Validate() error {
	if s.Flows <= 0 {
		return fmt.Errorf("bufsim: AdversarySimulation.Flows must be positive (got %d)", s.Flows)
	}
	if s.BufferPackets < 0 {
		return fmt.Errorf("bufsim: AdversarySimulation.BufferPackets must be >= 0 (got %d)", s.BufferPackets)
	}
	return nil
}

// AdversaryResult reports the failure-mode measurements of one
// adversarial run — the same cell RunAdversarial's table would hold.
type AdversaryResult struct {
	// BufferPackets echoes the per-bottleneck buffer actually used
	// (the rule-of-thumb BDP when the config left it zero).
	BufferPackets int
	// Utilization is the bottleneck's busy fraction over the
	// measurement window (the worst core link for the parking lot).
	Utilization float64
	// LossRate is the bottleneck queues' drop fraction of offered
	// packets.
	LossRate float64
	// MeanQueuePackets and PeakQueuePackets are the bottleneck queue
	// occupancy (worst link for the parking lot).
	MeanQueuePackets float64
	PeakQueuePackets int
	// SyncIndex is the aggregate-window synchronization index, measured
	// for the AIMD cohort and 0 for the other patterns.
	SyncIndex float64
}

// SimulateAdversary runs one adversarial pattern and reports how the
// chosen buffer fares against it. WithMetrics, WithAudit and WithCache
// compose as with Simulate; the TCP-shaping options do not apply — the
// patterns fix their own transport behaviour by design.
func SimulateAdversary(cfg AdversarySimulation, opts ...Option) AdversaryResult {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	row := experiment.RunAdversaryScenario(experiment.AdversaryScenario{
		Seed:    cfg.Seed,
		Pattern: cfg.Pattern,
		AdversaryCohort: experiment.AdversaryCohort{
			N:    cfg.Flows,
			Path: cfg.Link.fixedPath(cfg.Warmup, cfg.Measure),
		},
		BufferPackets: cfg.BufferPackets,
		RunEnv:        applyOptions(opts).env,
	})
	return AdversaryResult{
		BufferPackets:    row.BufferPackets,
		Utilization:      row.Utilization,
		LossRate:         row.LossRate,
		MeanQueuePackets: row.MeanQueue,
		PeakQueuePackets: row.PeakQueue,
		SyncIndex:        row.SyncIndex,
	}
}
