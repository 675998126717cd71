package experiment

import (
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// TestLossyRunAllocationBudget holds the loss path to an allocation count,
// which means the same on every machine: a run at a few percent loss may
// allocate its topology, its in-flight packet population and its result,
// and nothing per lost packet. The runs take 1 753 and 2 871 allocations
// (the second moves by one or two from run to run; under the race
// detector, whose bookkeeping allocates too, 1 883 and 3 105) and the
// ceilings sit 15% above that; at the parent commit, where reassembly and
// SACK state were maps and a dropped packet was left to the collector,
// they took 2 772 and 3 939.
func TestLossyRunAllocationBudget(t *testing.T) {
	cases := []struct {
		name    string
		ceiling float64
		run     func() (lossRate float64)
	}{
		// 30 long-lived Reno flows over two simulated seconds, drop-tail.
		{"long-lived", 2000, func() float64 {
			return runLongLived(LongLivedConfig{
				Seed: 1, N: 30, Path: Path{BottleneckRate: 60 * units.Mbps, Warmup: units.Second, Measure: units.Second}, BufferPackets: 55,
			}.withDefaults()).LossRate
		}},
		// 194 fourteen-segment SACK flows set up and torn down through a
		// RED queue.
		{"SACK churn", 3300, func() float64 {
			return runProfileUncached(ProfileRunConfig{
				Seed: 1, Path: Path{BottleneckRate: 12 * units.Mbps, Warmup: units.Second, Measure: units.Second}, BufferPackets: 16, UseRED: true,
				Source: workload.PoissonSource{Load: 0.95, Sizes: workload.FixedSize(14),
					TCP: tcp.Config{Variant: tcp.Sack, MaxWindow: 32}},
				Drain: 2 * units.Second,
			}.withDefaults()).LossRate
		}},
	}
	for _, c := range cases {
		var loss float64
		n := testing.AllocsPerRun(3, func() { loss = c.run() })
		t.Logf("%s: %.0f allocations at %.1f%% loss", c.name, n, 100*loss)
		if loss < 0.01 {
			t.Errorf("%s: %.2f%% loss; the run should exercise the loss path", c.name, 100*loss)
		}
		if n > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", c.name, n, c.ceiling)
		}
	}
}
