package experiment

import (
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

func TestRunVariantAblationRuleHoldsForAll(t *testing.T) {
	if testing.Short() {
		t.Skip("four simulation runs")
	}
	points := RunVariantAblation(VariantConfig{
		Scenario:     Scenario{Seed: 1, Path: Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		N:            100,
		BufferFactor: 1.5,
	})
	if len(points) != 4 {
		t.Fatalf("got %d points", len(points))
	}
	byName := map[tcp.Variant]VariantPoint{}
	for _, p := range points {
		byName[p.Variant] = p
		// The sizing result must not hinge on the CC flavour.
		if p.Utilization < 0.93 {
			t.Errorf("%v utilization = %v, want >= 0.93", p.Variant, p.Utilization)
		}
		if p.LossRate <= 0 {
			t.Errorf("%v shows no loss despite saturation", p.Variant)
		}
	}
	// SACK's whole point: materially fewer timeouts than Reno on the
	// same scenario.
	if byName[tcp.Sack].Timeouts >= byName[tcp.Reno].Timeouts {
		t.Errorf("SACK timeouts (%d) not below Reno's (%d)",
			byName[tcp.Sack].Timeouts, byName[tcp.Reno].Timeouts)
	}
}
