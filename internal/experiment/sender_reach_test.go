package experiment

import (
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/metrics"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
	"bufsim/internal/workload/profile"
)

// TestScenarioSenderReachesEverySource: whatever the source, every flow
// RunProfile carries runs the scenario's TCP. Under a CUBIC sender every
// tracked flow is a CUBIC flow, and under RED with ECN marking at a small
// buffer the senders answer marks with window reductions, so the
// scenario's ECN capability reached them too.
func TestScenarioSenderReachesEverySource(t *testing.T) {
	trace := make([]workload.FlowSpec, 120)
	for i := range trace {
		trace[i] = workload.FlowSpec{Start: units.Duration(i) * 25 * units.Millisecond, Size: 60}
	}
	for _, c := range []struct {
		name string
		src  workload.Source
	}{
		{"poisson", workload.PoissonSource{Load: 0.8, Sizes: workload.FixedSize(40)}},
		{"sessions", workload.SessionSource{Sessions: 20, Sizes: workload.FixedSize(40), MeanThink: 100 * units.Millisecond}},
		{"trace", workload.TraceSource{Flows: trace}},
		{"profile", profile.Source{Profile: profile.Profile{Name: "population", Population: profile.Curve{{T: 0, V: 4}}}}},
		{"aimdsync", adversary.SyncAIMD{N: 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, q := range []Queue{DropTail, REDECN} {
				reg := metrics.New()
				cfg := ProfileRunConfig{
					Scenario: Scenario{
						Seed:   1,
						Path:   Path{BottleneckRate: 10 * units.Mbps, Warmup: units.Second, Measure: 3 * units.Second},
						Queue:  q,
						Sender: Sender{Variant: tcp.Cubic},
					},
					BufferPackets: 20,
					Source:        c.src,
					Drain:         units.Second,
					RunEnv:        RunEnv{Metrics: reg},
				}
				RunProfile(cfg)
				got := reg.Snapshot().Counters
				cubic, tracked := got["tcp.flows.cubic"], got["tcp.flows_tracked"]
				if tracked == 0 || cubic != tracked {
					t.Errorf("%v: tcp.flows.cubic %d of tcp.flows_tracked %d, want every flow CUBIC", q, cubic, tracked)
				}
				if ecn := got["tcp.ecn_reductions"]; q == REDECN && ecn == 0 {
					t.Errorf("%v: tcp.ecn_reductions 0, want the senders to answer the queue's marks", q)
				}
			}
		})
	}
}
