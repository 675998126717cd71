// Benchmarks regenerating every figure and table in the paper's
// evaluation (§5). Each benchmark runs the corresponding experiment
// driver and reports the headline numbers as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation at a scaled-down size, and
//
//	go test -bench=. -benchmem -paperscale -timeout 4h
//
// runs the published parameters (OC3 line rate, 100-400 flows, full
// ladders). One benchmark iteration is one full experiment, so b.N is
// effectively 1 at default -benchtime.
package bufsim

import (
	"flag"
	"testing"

	"bufsim/internal/experiment"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

var paperScale = flag.Bool("paperscale", false, "run benchmarks at the paper's full parameters")

// quickOr returns q unless -paperscale is set, in which case zero values
// let the experiment defaults (the paper's parameters) apply.
func rate(q units.BitRate) units.BitRate {
	if *paperScale {
		return 0
	}
	return q
}

func dur(q units.Duration) units.Duration {
	if *paperScale {
		return 0
	}
	return q
}

// BenchmarkFig2SingleFlowSawtooth: B = RTT x C, one flow; the utilization
// must be ~100% and the queue must touch (near) zero each cycle (Figs. 2/3).
func BenchmarkFig2SingleFlowSawtooth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunSingleFlow(experiment.SingleFlowConfig{BufferFactor: 1})
		b.ReportMetric(100*res.Utilization, "util%")
		b.ReportMetric(res.MinQueueSeen, "minQueue_pkts")
		b.ReportMetric(res.MeanQueue, "meanQueue_pkts")
	}
}

// BenchmarkFig4Underbuffered: B = BDP/8; throughput is lost (Fig. 4).
func BenchmarkFig4Underbuffered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunSingleFlow(experiment.SingleFlowConfig{BufferFactor: 0.125})
		b.ReportMetric(100*res.Utilization, "util%")
	}
}

// BenchmarkFig5Overbuffered: B = 2 x BDP; full throughput, standing queue
// (Fig. 5).
func BenchmarkFig5Overbuffered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunSingleFlow(experiment.SingleFlowConfig{BufferFactor: 2})
		b.ReportMetric(100*res.Utilization, "util%")
		b.ReportMetric(res.MinQueueSeen, "minQueue_pkts")
	}
}

// BenchmarkFig6WindowDistribution: the aggregate congestion window is
// approximately Gaussian; KS distance is the fit metric (Fig. 6).
func BenchmarkFig6WindowDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.WindowDistConfig{Seed: 1, N: 200}
		if !*paperScale {
			cfg.N = 100
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Warmup, cfg.Measure = 15*units.Second, 40*units.Second
		}
		res := experiment.RunWindowDist(cfg)
		b.ReportMetric(res.KS, "KS")
		b.ReportMetric(res.Mean, "aggW_mean")
		b.ReportMetric(res.StdDev, "aggW_sd")
	}
}

// BenchmarkFig7MinBufferLongFlows: minimum buffer for 98/99.5/99.9%
// utilization vs n, against RTTxC/sqrt(n) (Fig. 7). Reports the measured
// minimum buffer as a multiple of the sqrt rule, averaged over the sweep.
func BenchmarkFig7MinBufferLongFlows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.MinBufferConfig{Seed: 1}
		if !*paperScale {
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Ns = []int{50, 100, 200}
			cfg.Targets = []float64{0.98, 0.995}
			cfg.LadderPoints = 8
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		res := experiment.RunMinBufferSweep(cfg)
		var ratioSum float64
		for _, p := range res.Points {
			ratioSum += float64(p.MinBuffer) / float64(p.SqrtRule)
		}
		b.ReportMetric(ratioSum/float64(len(res.Points)), "minBuf/sqrtRule")
		b.ReportMetric(float64(res.BDPPackets), "BDP_pkts")
	}
}

// BenchmarkFig8ShortFlowBuffer: minimum buffer keeping short-flow AFCT
// within 12.5% of infinite buffers, vs the M/G/1 model (Fig. 8). The
// headline check is rate independence: metric is the spread of the
// minimum buffer across line rates.
func BenchmarkFig8ShortFlowBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.ShortFlowBufferConfig{Seed: 1}
		if !*paperScale {
			cfg.Rates = []units.BitRate{20 * units.Mbps, 60 * units.Mbps}
			cfg.Warmup, cfg.Measure = 5*units.Second, 15*units.Second
		}
		points := experiment.RunShortFlowBuffer(cfg)
		minB, maxB := points[0].MinBuffer, points[0].MinBuffer
		var model float64
		for _, p := range points {
			if p.MinBuffer < minB {
				minB = p.MinBuffer
			}
			if p.MinBuffer > maxB {
				maxB = p.MinBuffer
			}
			model = p.ModelBuffer
		}
		b.ReportMetric(float64(minB), "minBuf_lowRate")
		b.ReportMetric(float64(maxB), "minBuf_highRate")
		b.ReportMetric(model, "modelBuf")
	}
}

// BenchmarkFig9AFCTComparison: mixed traffic; small buffers complete short
// flows faster than rule-of-thumb buffers (Fig. 9). Metric: AFCT ratio
// (rule-of-thumb / sqrt-rule) — above 1 means the paper's claim holds.
func BenchmarkFig9AFCTComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.AFCTComparisonConfig{Seed: 1}
		if !*paperScale {
			cfg.NLong = 60
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		res := experiment.RunAFCTComparison(cfg)
		b.ReportMetric(float64(res.RuleThumb.AFCT)/float64(res.SqrtRule.AFCT), "AFCT_ratio")
		b.ReportMetric(res.SqrtRule.AFCT.Milliseconds(), "AFCT_small_ms")
		b.ReportMetric(res.RuleThumb.AFCT.Milliseconds(), "AFCT_large_ms")
		b.ReportMetric(100*res.SqrtRule.Utilization, "util_small%")
	}
}

// BenchmarkFig9ParetoFlowSizes: §5.1.3's check that heavy-tailed flow
// sizes give "essentially identical results".
func BenchmarkFig9ParetoFlowSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.AFCTComparisonConfig{
			Seed:  1,
			Sizes: workload.ParetoSize{Shape: 1.2, Min: 2, Max: 2000},
		}
		if !*paperScale {
			cfg.NLong = 60
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		res := experiment.RunAFCTComparison(cfg)
		b.ReportMetric(float64(res.RuleThumb.AFCT)/float64(res.SqrtRule.AFCT), "AFCT_ratio")
	}
}

// BenchmarkFig10UtilizationTable: the Cisco-GSR table — model vs simulated
// utilization at 0.5/1/2/3x RTTxC/sqrt(n) (Fig. 10). Metric: worst-row
// simulated utilization at the 1x rule and at 2x.
func BenchmarkFig10UtilizationTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.UtilizationTableConfig{Seed: 1}
		if !*paperScale {
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Ns = []int{100, 200}
			cfg.Factors = []float64{0.5, 1, 2}
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		rows := experiment.RunUtilizationTable(cfg)
		worst1x, worst2x := 1.0, 1.0
		for _, r := range rows {
			if r.Factor == 1 && r.SimUtil < worst1x {
				worst1x = r.SimUtil
			}
			if r.Factor == 2 && r.SimUtil < worst2x {
				worst2x = r.SimUtil
			}
		}
		b.ReportMetric(100*worst1x, "worstUtil@1x%")
		b.ReportMetric(100*worst2x, "worstUtil@2x%")
	}
}

// BenchmarkREDAblation: the Fig. 10 subset under RED — the result is
// expected to hold for other queueing disciplines (§5.1).
func BenchmarkREDAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.UtilizationTableConfig{Seed: 1, UseRED: true}
		if !*paperScale {
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Ns = []int{100}
			cfg.Factors = []float64{1, 2}
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		} else {
			cfg.Factors = []float64{1, 2}
		}
		rows := experiment.RunUtilizationTable(cfg)
		worst := 1.0
		for _, r := range rows {
			if r.SimUtil < worst {
				worst = r.SimUtil
			}
		}
		b.ReportMetric(100*worst, "worstUtil%")
	}
}

// BenchmarkFig11ProductionMix: the Stanford production-network table —
// utilization vs buffer for a heavy-tailed live-traffic mix (Fig. 11).
func BenchmarkFig11ProductionMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.ProductionConfig{Seed: 1}
		if !*paperScale {
			cfg.NLong = 40
			cfg.Buffers = []int{46, 85, 500}
			cfg.Warmup, cfg.Measure = 10*units.Second, 25*units.Second
		}
		rows := experiment.RunProduction(cfg)
		b.ReportMetric(100*rows[0].Utilization, "util@smallest%")
		b.ReportMetric(100*rows[len(rows)-1].Utilization, "util@largest%")
		b.ReportMetric(rows[0].MeanConcurrent, "concurrentFlows")
	}
}

// BenchmarkSyncAblation: §3's synchronization claim — the sync index
// (aggregate window CoV over the CLT prediction) falls toward 1 as n
// grows.
func BenchmarkSyncAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.SyncConfig{Seed: 1}
		if !*paperScale {
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.Ns = []int{10, 100}
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		points := experiment.RunSyncAblation(cfg)
		b.ReportMetric(points[0].SyncIndex, "syncIdx_fewFlows")
		b.ReportMetric(points[len(points)-1].SyncIndex, "syncIdx_manyFlows")
	}
}

// BenchmarkPacingAblation: the TR's extension — sender pacing recovers
// the utilization that tiny buffers cost when n is small. Metrics: paced
// vs unpaced utilization at 0.25x the sqrt rule.
func BenchmarkPacingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.PacingConfig{Seed: 1, BufferFactors: []float64{0.25}}
		if !*paperScale {
			cfg.N = 20
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		points := experiment.RunPacingAblation(cfg)
		b.ReportMetric(100*points[0].UtilUnpaced, "utilUnpaced%")
		b.ReportMetric(100*points[0].UtilPaced, "utilPaced%")
	}
}

// BenchmarkAccessSmoothing: §4's observation that slow access links smooth
// slow-start bursts toward Poisson (M/D/1) arrivals, shrinking the queue
// tail. Metrics: measured P(Q >= 20) with fast vs slow access links.
func BenchmarkAccessSmoothing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.SmoothingConfig{Seed: 1}
		if !*paperScale {
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.Warmup, cfg.Measure = 8*units.Second, 30*units.Second
		}
		points := experiment.RunSmoothing(cfg).Points
		last := len(points) - 1
		b.ReportMetric(points[0].TailProb, "tail_fastAccess")
		b.ReportMetric(points[last].TailProb, "tail_slowAccess")
		b.ReportMetric(points[0].ModelMG1, "tail_MG1bound")
		b.ReportMetric(points[last].ModelMD1, "tail_MD1bound")
	}
}

// BenchmarkInternet2Backbone: §5.3's closing experiment — a backbone link
// at 0.5% of its default one-second buffer shows no measurable
// degradation. Metrics: utilization and P99 queueing delay at the small
// buffer.
func BenchmarkInternet2Backbone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.BackboneConfig{Seed: 1}
		if !*paperScale {
			cfg.BottleneckRate = 600 * units.Mbps
			cfg.N = 600
			cfg.Warmup, cfg.Measure = 8*units.Second, 15*units.Second
		}
		res := experiment.RunBackbone(cfg)
		b.ReportMetric(100*res.Small.Utilization, "util%")
		b.ReportMetric(res.Small.QueueDelayP99.Milliseconds(), "p99delay_ms")
		b.ReportMetric(float64(res.SmallBuffer), "buffer_pkts")
	}
}

// BenchmarkMultiHop: extension — the sqrt(n) rule applied per link on a
// two-bottleneck parking lot (the §5.1 single-congestion-point assumption,
// deliberately violated). Metrics: both links' utilization.
func BenchmarkMultiHop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.MultiHopConfig{Seed: 1}
		if !*paperScale {
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.NPerGroup = 40
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		res := experiment.RunMultiHop(cfg)
		b.ReportMetric(100*res.Util[0], "utilHop1%")
		b.ReportMetric(100*res.Util[1], "utilHop2%")
		b.ReportMetric(100*res.CrossingShare, "crossShare%")
	}
}

// BenchmarkVariantAblation: extension — the sqrt(n) rule across TCP
// flavours (Reno/NewReno/SACK/Tahoe). Metric: each variant's utilization
// at 1x the rule.
func BenchmarkVariantAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.VariantConfig{Seed: 1}
		if !*paperScale {
			cfg.N = 60
			cfg.BottleneckRate = 20 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		points := experiment.RunVariantAblation(cfg)
		for _, p := range points {
			b.ReportMetric(100*p.Utilization, "util_"+p.Variant.String()+"%")
		}
	}
}

// BenchmarkECNAblation: extension — RED marking (with ECN senders) vs RED
// dropping at the same sqrt(n)-rule buffer. Metrics: utilization and loss
// under both.
func BenchmarkECNAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.ECNConfig{Seed: 1}
		if !*paperScale {
			cfg.N = 100
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		res := experiment.RunECN(cfg)
		b.ReportMetric(100*res.Drop.Utilization, "utilDrop%")
		b.ReportMetric(100*res.Mark.Utilization, "utilMark%")
		b.ReportMetric(100*res.Drop.LossRate, "lossDrop%")
		b.ReportMetric(100*res.Mark.LossRate, "lossMark%")
	}
}

// BenchmarkHarpoonSessions: extension — the Fig. 10 ladder under
// closed-loop Harpoon-style session traffic. Metrics: emergent concurrent
// flows and utilization at 0.5x / 1x the calibrated sqrt(n) rule.
func BenchmarkHarpoonSessions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.HarpoonConfig{Seed: 1, Factors: []float64{0.5, 1}}
		if !*paperScale {
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Sessions = 500
			cfg.Warmup, cfg.Measure = 15*units.Second, 25*units.Second
		}
		res := experiment.RunHarpoon(cfg)
		b.ReportMetric(float64(res.CalibratedN), "concurrentFlows")
		b.ReportMetric(100*res.Rows[0].Utilization, "util@0.5x%")
		b.ReportMetric(100*res.Rows[1].Utilization, "util@1x%")
	}
}

// BenchmarkRTTSpreadAblation: §3's mechanism — identical RTTs synchronize
// flows, a few milliseconds of spread desynchronizes them. Metrics: sync
// index and utilization at zero vs 5 ms spread.
func BenchmarkRTTSpreadAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.RTTSpreadConfig{
			Seed:    1,
			Spreads: []units.Duration{0, 5 * units.Millisecond},
		}
		if !*paperScale {
			cfg.N = 100
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 25*units.Second
		}
		points := experiment.RunRTTSpread(cfg)
		b.ReportMetric(points[0].SyncIndex, "syncIdx_identicalRTT")
		b.ReportMetric(points[1].SyncIndex, "syncIdx_5msSpread")
		b.ReportMetric(100*points[0].Utilization, "util_identicalRTT%")
		b.ReportMetric(100*points[1].Utilization, "util_5msSpread%")
	}
}

// BenchmarkCoDelComparison: extension — sqrt(n)-sized drop-tail vs
// rule-of-thumb drop-tail vs CoDel. Metrics: utilization and P99 delay of
// the sqrt(n) and CoDel designs.
func BenchmarkCoDelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.CoDelConfig{Seed: 1}
		if !*paperScale {
			cfg.N = 100
			cfg.BottleneckRate = 40 * units.Mbps
			cfg.Warmup, cfg.Measure = 10*units.Second, 20*units.Second
		}
		rows := experiment.RunCoDel(cfg)
		b.ReportMetric(100*rows[0].Utilization, "util_sqrtn%")
		b.ReportMetric(100*rows[2].Utilization, "util_codel%")
		b.ReportMetric(rows[0].QueueDelayP99.Milliseconds(), "p99_sqrtn_ms")
		b.ReportMetric(rows[2].QueueDelayP99.Milliseconds(), "p99_codel_ms")
	}
}

// BenchmarkKernelEventThroughput measures the raw discrete-event engine:
// how many simulated packet-events per wall-second one OC3 run processes.
func BenchmarkKernelEventThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunLongLived(experiment.LongLivedConfig{
			Seed: 1, N: 100, Path: experiment.Path{BottleneckRate: units.OC3, Warmup: 5 * units.Second, Measure: 10 * units.Second},
			BufferPackets: 194,
		})
		b.ReportMetric(100*res.Utilization, "util%")
	}
}
