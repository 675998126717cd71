package experiment

import (
	"testing"

	"bufsim/internal/units"
)

func TestRunCoDelComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("three simulation runs")
	}
	rows := RunCoDel(CoDelConfig{
		Seed: 1,
		N:    100,
		Path: Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second},
	})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	sqrt, thumb, codel := rows[0], rows[1], rows[2]
	// The rule-of-thumb buffer pays its standing-queue tax: its P99
	// delay towers over both alternatives.
	if thumb.QueueDelayP99 < 2*sqrt.QueueDelayP99 {
		t.Errorf("rule-of-thumb P99 %v not well above sqrt(n)'s %v",
			thumb.QueueDelayP99, sqrt.QueueDelayP99)
	}
	if codel.QueueDelayP99 >= thumb.QueueDelayP99 {
		t.Errorf("CoDel P99 %v not below drop-tail-at-RTTxC %v",
			codel.QueueDelayP99, thumb.QueueDelayP99)
	}
	// All three keep the link productive.
	for _, r := range rows {
		if r.Utilization < 0.85 {
			t.Errorf("%s utilization = %v", r.Label, r.Utilization)
		}
	}
	// The headline: right-sized drop-tail needs no AQM to get both high
	// utilization and low delay in the many-flows regime.
	if sqrt.Utilization < codel.Utilization-0.02 {
		t.Errorf("sqrt(n) drop-tail util %v clearly below CoDel %v",
			sqrt.Utilization, codel.Utilization)
	}
	if sqrt.QueueDelayP99 > codel.QueueDelayP99 {
		t.Errorf("sqrt(n) P99 %v above CoDel %v", sqrt.QueueDelayP99, codel.QueueDelayP99)
	}
}

func TestCoDelAndREDMutuallyExclusive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CoDel+RED did not panic")
		}
	}()
	RunLongLived(LongLivedConfig{
		N: 2, Path: Path{BottleneckRate: units.Mbps, Warmup: units.Second, Measure: units.Second}, BufferPackets: 10,
		UseRED: true, UseCoDel: true,
	})
}

func TestRunLongLivedReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated runs")
	}
	cfg := scaledLongLived(20, 60)
	cfg.Measure = 8 * units.Second
	res := RunLongLivedReplicated(cfg, 4)
	if res.Replicas != 4 {
		t.Fatalf("Replicas = %d", res.Replicas)
	}
	if res.MeanUtilization <= 0.5 || res.MeanUtilization > 1 {
		t.Errorf("MeanUtilization = %v", res.MeanUtilization)
	}
	if res.Min > res.MeanUtilization || res.Max < res.MeanUtilization {
		t.Errorf("min/max do not bracket mean: %+v", res)
	}
	if res.StdDev < 0 || res.StdDev > 0.2 {
		t.Errorf("StdDev = %v, implausible", res.StdDev)
	}
	defer func() {
		if recover() == nil {
			t.Error("k=0 did not panic")
		}
	}()
	RunLongLivedReplicated(cfg, 0)
}
