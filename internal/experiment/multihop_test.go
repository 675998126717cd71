package experiment

import (
	"testing"

	"bufsim/internal/units"
)

func TestRunMultiHopSqrtRuleHoldsPerLink(t *testing.T) {
	if testing.Short() {
		t.Skip("two-bottleneck simulation")
	}
	res := RunMultiHop(MultiHopConfig{
		Scenario:  Scenario{Seed: 1, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		NPerGroup: 40,
	})
	if res.FlowsPerLink != 80 {
		t.Fatalf("FlowsPerLink = %d", res.FlowsPerLink)
	}
	// The extension's claim: per-link sqrt(n) sizing keeps both
	// bottlenecks near-full even though a third of the flows cross two
	// congestion points.
	for i, u := range res.Util {
		if u < 0.93 {
			t.Errorf("link %d utilization = %v, want >= 0.93", i, u)
		}
	}
	// Crossing flows are half of each link's population; they should get
	// a substantial (if slightly biased-down) share of hop 1.
	if res.CrossingShare < 0.25 || res.CrossingShare > 0.6 {
		t.Errorf("crossing share = %v, want ~0.4-0.5", res.CrossingShare)
	}
	for i, l := range res.LossRate {
		if l <= 0 {
			t.Errorf("link %d shows no loss despite saturation", i)
		}
	}
}

func TestRunMultiHopStarvedByTinyBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("two-bottleneck simulation")
	}
	small := RunMultiHop(MultiHopConfig{
		Scenario: Scenario{Seed: 1, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 15 * units.Second}}, NPerGroup: 40,
		BufferFactor: 0.15,
	})
	full := RunMultiHop(MultiHopConfig{
		Scenario: Scenario{Seed: 1, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 15 * units.Second}}, NPerGroup: 40,
		BufferFactor: 2,
	})
	if small.Util[0] >= full.Util[0] {
		t.Errorf("0.15x buffers (%v) should underperform 2x (%v)",
			small.Util[0], full.Util[0])
	}
}
