package experiment

import (
	"testing"

	"bufsim/internal/units"
)

func TestRunPacingAblationHelpsTinyBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulation runs")
	}
	points := RunPacingAblation(PacingConfig{
		Scenario:      Scenario{Seed: 11, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 10 * units.Second, Measure: 20 * units.Second}},
		N:             20,
		BufferFactors: []float64{0.25, 1},
	})
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	tiny := points[0]
	// The TR's claim: pacing recovers utilization lost to burstiness at
	// buffers far below the rule. Allow a little noise but require a
	// clear win at 0.25x.
	if tiny.UtilPaced <= tiny.UtilUnpaced+0.01 {
		t.Errorf("pacing did not help at 0.25x: unpaced=%v paced=%v",
			tiny.UtilUnpaced, tiny.UtilPaced)
	}
	for _, p := range points {
		if p.UtilPaced < 0.5 || p.UtilUnpaced < 0.5 {
			t.Errorf("implausible utilization: %+v", p)
		}
	}
}

func TestRunSmoothingSlowAccessReducesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("paired simulation runs")
	}
	points := RunSmoothing(SmoothingConfig{
		Scenario:     Scenario{Seed: 12, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 8 * units.Second, Measure: 40 * units.Second}},
		Load:         0.75,
		FlowLen:      30,
		TailAt:       15,
		AccessRatios: []float64{10, 0.25},
	}).Points
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	fast, slow := points[0], points[1]
	if fast.AccessRatio != 10 || slow.AccessRatio != 0.25 {
		t.Fatalf("unexpected ratios: %+v", points)
	}
	// §4: slow access links smooth bursts, so the queue tail shrinks.
	if slow.TailProb >= fast.TailProb {
		t.Errorf("slow access did not reduce the tail: fast=%v slow=%v",
			fast.TailProb, slow.TailProb)
	}
	// The models bracket reality: M/D/1 is the smooth lower bound.
	if fast.ModelMG1 <= fast.ModelMD1 {
		t.Errorf("model ordering wrong: MG1=%v MD1=%v", fast.ModelMG1, fast.ModelMD1)
	}
	// And the measured tail for fast access should not wildly exceed the
	// M/G/1 bound (it is an upper bound on drop probability, but the
	// queue-tail comparison should be same order of magnitude).
	if fast.TailProb > 20*fast.ModelMG1+0.05 {
		t.Errorf("fast-access tail %v far above M/G/1 bound %v", fast.TailProb, fast.ModelMG1)
	}
}
