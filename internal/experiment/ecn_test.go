package experiment

import (
	"testing"

	"bufsim/internal/units"
)

func TestRunECNMarkingBeatsDropping(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulation runs")
	}
	res := RunECN(ECNConfig{
		Seed:         1,
		N:            100,
		Path:         Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second},
		BufferFactor: 2,
	})
	if res.Mark.Utilization < res.Drop.Utilization {
		t.Errorf("marking utilization %v below dropping %v",
			res.Mark.Utilization, res.Drop.Utilization)
	}
	if res.Mark.LossRate >= res.Drop.LossRate {
		t.Errorf("marking loss %v not below dropping %v",
			res.Mark.LossRate, res.Drop.LossRate)
	}
	if res.Mark.Timeouts >= res.Drop.Timeouts {
		t.Errorf("marking timeouts %d not below dropping %d",
			res.Mark.Timeouts, res.Drop.Timeouts)
	}
}

func TestECNRequiresRED(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ECN without RED did not panic")
		}
	}()
	RunLongLived(LongLivedConfig{
		N: 2, Path: Path{BottleneckRate: units.Mbps, Warmup: units.Second, Measure: units.Second}, BufferPackets: 10, ECN: true,
	})
}
