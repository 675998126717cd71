package experiment

import (
	"testing"

	"bufsim/internal/units"
)

func TestRunRTTSpreadDesynchronizes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ablation")
	}
	points := RunRTTSpread(RTTSpreadConfig{
		Seed:    1,
		N:       100,
		Path:    Path{BottleneckRate: 40 * units.Mbps, Warmup: 10 * units.Second, Measure: 25 * units.Second},
		Spreads: []units.Duration{0, 5 * units.Millisecond, 20 * units.Millisecond},
	})
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	homo, small := points[0], points[1]
	// §3's claim: identical RTTs synchronize (high index, depressed
	// utilization); a few ms of spread is enough to break it.
	if homo.SyncIndex < small.SyncIndex*1.5 {
		t.Errorf("homogeneous sync index %v not clearly above 5ms-spread %v",
			homo.SyncIndex, small.SyncIndex)
	}
	if small.Utilization < homo.Utilization {
		t.Errorf("5ms spread utilization %v below homogeneous %v",
			small.Utilization, homo.Utilization)
	}
	if small.Utilization < 0.97 {
		t.Errorf("desynchronized utilization = %v, want ~full", small.Utilization)
	}
}
