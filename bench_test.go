// Benchmarks regenerating every figure and table in the paper's
// evaluation (§5): one sub-benchmark per experiment.Catalog row, the
// same rows cmd/paperexp runs, so
//
//	go test -bench Paper -benchmem
//
// reproduces the whole evaluation at the catalog's -quick scale
// (internal/experiment/testdata/golden/quick_parameters.txt), and
//
//	go test -bench Paper -benchmem -paperscale -timeout 4h
//
// runs the published parameters (OC3 line rate, 100-400 flows, full
// ladders). -bench 'Paper/fig10' picks one id; -v logs its table. One
// benchmark iteration is one full experiment, so b.N is effectively 1 at
// default -benchtime.
package bufsim

import (
	"flag"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/units"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the paper's full parameters")

func BenchmarkPaper(b *testing.B) {
	for _, e := range experiment.Catalog {
		b.Run(e.ID, func(b *testing.B) {
			var res experiment.Result
			for i := 0; i < b.N; i++ {
				res = e.Run(!*paperScale, 1, experiment.RunEnv{})
			}
			if testing.Verbose() {
				b.Log("\n" + res.Table())
			}
		})
	}
}

// BenchmarkKernelEventThroughput measures the raw discrete-event engine:
// how many simulated packet-events per wall-second one OC3 run processes.
func BenchmarkKernelEventThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunLongLived(experiment.LongLivedConfig{
			Scenario: experiment.Scenario{Seed: 1, Path: experiment.Path{BottleneckRate: units.OC3, Warmup: 5 * units.Second, Measure: 10 * units.Second}}, N: 100,
			BufferPackets: 194,
		})
		b.ReportMetric(100*res.Utilization, "util%")
	}
}
