package experiment

import (
	"testing"

	"bufsim/internal/units"
	"bufsim/internal/workload"
)

func TestRunHarpoonMatchesFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("five closed-loop simulations")
	}
	res := RunHarpoon(HarpoonConfig{
		Seed:      1,
		Path:      Path{BottleneckRate: 40 * units.Mbps, Warmup: 15 * units.Second, Measure: 25 * units.Second},
		Sessions:  500, // ~1.5x the link's capacity in offered demand
		Sizes:     workload.ParetoSize{Shape: 1.2, Min: 10, Max: 5000},
		MeanThink: 2 * units.Second,
	})
	// Overload: the emergent concurrent-flow count is large.
	if res.CalibratedN < 100 {
		t.Fatalf("CalibratedN = %d, want an overloaded link", res.CalibratedN)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Fig. 10's shape under closed-loop traffic: high at 0.5x, ~full from
	// 1x up, monotone.
	for i, r := range res.Rows {
		if i > 0 && r.Utilization < res.Rows[i-1].Utilization-0.02 {
			t.Errorf("utilization not monotone: %+v", res.Rows)
		}
	}
	if res.Rows[0].Utilization < 0.9 {
		t.Errorf("0.5x row = %v, want >= 0.9", res.Rows[0].Utilization)
	}
	if res.Rows[1].Utilization < 0.97 {
		t.Errorf("1x row = %v, want >= 0.97", res.Rows[1].Utilization)
	}
	if res.Rows[2].Utilization < 0.99 {
		t.Errorf("2x row = %v, want ~1", res.Rows[2].Utilization)
	}
	// Every row keeps the session machine running.
	for _, r := range res.Rows {
		if r.Transfers < 500 {
			t.Errorf("row %.1fx completed only %d transfers", r.Factor, r.Transfers)
		}
	}
}
