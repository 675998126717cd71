package experiment

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// Scaled-down scenario shared by the long-lived tests: 20 Mb/s bottleneck,
// 60-140 ms RTTs (BDP = 250 packets at the 100 ms mean).
func scaledLongLived(n, buffer int) LongLivedConfig {
	return LongLivedConfig{
		Seed:          1,
		N:             n,
		Path:          Path{BottleneckRate: 20 * units.Mbps, RTTMin: 60 * units.Millisecond, RTTMax: 140 * units.Millisecond, Warmup: 8 * units.Second, Measure: 15 * units.Second},
		BufferPackets: buffer,
	}
}

func TestRunLongLivedSqrtRuleUtilization(t *testing.T) {
	// At small n the paper itself warns flows partially synchronize and
	// the 1x rule underperforms; 2x the rule should still deliver high
	// utilization in this scaled-down scenario.
	bdp := 250.0
	res := RunLongLived(scaledLongLived(30, 2*SqrtRuleBuffer(bdp, 30)))
	if res.Utilization < 0.95 {
		t.Errorf("utilization at 2x sqrt-rule buffer = %v, want >= 0.95", res.Utilization)
	}
	if res.LossRate <= 0 {
		t.Error("long-lived flows should saturate the link and drop packets")
	}
	if res.RetransmitFraction <= 0 || res.RetransmitFraction > 0.3 {
		t.Errorf("retransmit fraction = %v, want small but nonzero", res.RetransmitFraction)
	}
	// TCP over a shared drop-tail queue with heterogeneous RTTs is not
	// perfectly fair, but no flow should be starved either.
	if res.Fairness < 0.5 || res.Fairness > 1 {
		t.Errorf("Jain fairness = %v, want [0.5, 1]", res.Fairness)
	}
}

func TestRunLongLivedPaperScaleOC3(t *testing.T) {
	// The paper's regime: OC3, hundreds of flows, 1x RTTxC/sqrt(n).
	if testing.Short() {
		t.Skip("full-scale OC3 run")
	}
	res := RunLongLived(LongLivedConfig{
		Seed:          9,
		N:             300,
		Path:          Path{BottleneckRate: units.OC3, RTTMin: 60 * units.Millisecond, RTTMax: 140 * units.Millisecond, Warmup: 15 * units.Second, Measure: 30 * units.Second},
		BufferPackets: SqrtRuleBuffer(2500, 300), // BDP ~2500 pkts at 100 ms mean RTT
	})
	if res.Utilization < 0.97 {
		t.Errorf("OC3 n=300 1x-rule utilization = %v, want >= 0.97", res.Utilization)
	}
}

func TestRunLongLivedTinyBufferDegrades(t *testing.T) {
	full := RunLongLived(scaledLongLived(50, SqrtRuleBuffer(250, 50)))
	tiny := RunLongLived(scaledLongLived(50, 2))
	if tiny.Utilization >= full.Utilization {
		t.Errorf("2-packet buffer (%v) should underperform sqrt-rule buffer (%v)",
			tiny.Utilization, full.Utilization)
	}
}

func TestRunLongLivedDelayedAckStillMeetsRule(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	cfg := scaledLongLived(30, 2*SqrtRuleBuffer(250, 30))
	cfg.DelayedAck = true
	res := RunLongLived(cfg)
	if res.Utilization < 0.93 {
		t.Errorf("delayed-ACK utilization = %v, want >= 0.93", res.Utilization)
	}
}

func TestRunLongLivedREDRuns(t *testing.T) {
	cfg := scaledLongLived(50, 2*SqrtRuleBuffer(250, 50))
	cfg.UseRED = true
	res := RunLongLived(cfg)
	if res.Utilization < 0.85 {
		t.Errorf("RED utilization = %v, want >= 0.85", res.Utilization)
	}
	if res.MeanQueue != 0 {
		t.Error("MeanQueue should be 0 under RED (no drop-tail accounting)")
	}
}

func TestRunSingleFlowRegimes(t *testing.T) {
	base := SingleFlowConfig{
		Path: Path{BottleneckRate: 10 * units.Mbps, RTTMin: 100 * units.Millisecond, Warmup: 100 * units.Second, Measure: 150 * units.Second},
	}
	exact := base
	exact.BufferFactor = 1
	re := RunSingleFlow(exact)
	if re.BDPPackets != 125 || re.BufferPackets != 125 {
		t.Fatalf("BDP/Buffer = %d/%d, want 125/125", re.BDPPackets, re.BufferPackets)
	}
	if re.Utilization < 0.999 {
		t.Errorf("exact buffering utilization = %v, want ~1 (Fig. 3)", re.Utilization)
	}
	// Fig. 3's signature: the queue almost hits zero but the link stays
	// busy. The sampled minimum should be small relative to the buffer.
	if re.MinQueueSeen > float64(re.BufferPackets)/4 {
		t.Errorf("queue never drained: min occupancy %v", re.MinQueueSeen)
	}
	if re.Cwnd.Len() == 0 || re.Queue.Len() == 0 {
		t.Fatal("missing time series")
	}
	// Sawtooth: the window trace must oscillate between ~BDP and ~2*BDP.
	if re.Cwnd.Max()-re.Cwnd.Min() < float64(re.BDPPackets)/2 {
		t.Errorf("cwnd trace not a sawtooth: range [%v, %v]", re.Cwnd.Min(), re.Cwnd.Max())
	}

	under := base
	under.BufferFactor = 0.125
	ru := RunSingleFlow(under)
	if ru.Utilization > 0.9 {
		t.Errorf("underbuffered utilization = %v, want < 0.9 (Fig. 4)", ru.Utilization)
	}
	if ru.Utilization < 0.6 {
		t.Errorf("underbuffered utilization = %v, implausibly low", ru.Utilization)
	}

	over := base
	over.BufferFactor = 2
	ro := RunSingleFlow(over)
	if ro.Utilization < 0.999 {
		t.Errorf("overbuffered utilization = %v, want ~1 (Fig. 5)", ro.Utilization)
	}
	// Fig. 5's signature: the queue never empties (standing queue).
	if ro.MinQueueSeen < 1 {
		t.Errorf("overbuffered queue drained to %v, want > 0", ro.MinQueueSeen)
	}
	if !(ru.Utilization < re.Utilization && re.Utilization <= ro.Utilization+0.001) {
		t.Errorf("regime ordering: %v %v %v", ru.Utilization, re.Utilization, ro.Utilization)
	}
}

func TestRunWindowDistGaussian(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow distribution run")
	}
	res := RunWindowDist(WindowDistConfig{
		Seed:         2,
		N:            80,
		Path:         Path{BottleneckRate: 20 * units.Mbps, RTTMin: 60 * units.Millisecond, RTTMax: 140 * units.Millisecond, Warmup: 10 * units.Second, Measure: 30 * units.Second},
		BufferFactor: 1.5,
	})
	if len(res.Samples) < 1000 {
		t.Fatalf("too few samples: %d", len(res.Samples))
	}
	if res.Mean <= 0 || res.StdDev <= 0 {
		t.Fatalf("degenerate fit: mean=%v sd=%v", res.Mean, res.StdDev)
	}
	// Fig. 6: approximately Gaussian. KS for autocorrelated samples won't
	// reach iid levels; require it beat an obviously non-normal shape.
	if res.KS > 0.15 {
		t.Errorf("KS = %v, want < 0.15 for a near-Gaussian aggregate", res.KS)
	}
	// The aggregate window should hover near BDP + B.
	bdp := 250.0
	if res.Mean < bdp/2 || res.Mean > 2*bdp {
		t.Errorf("aggregate mean = %v, want near BDP %v", res.Mean, bdp)
	}
}

func TestMinBufferForUtilizationFindsThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection over simulations")
	}
	cfg := scaledLongLived(30, 0)
	cfg.Measure = 10 * units.Second
	b := MinBufferForUtilization(cfg, 0.97, 300)
	if b <= 1 || b >= 300 {
		t.Fatalf("MinBuffer = %d, want interior point", b)
	}
	// Meeting the target at b must imply (roughly) meeting it at 2b.
	u2 := MeasuredUtilization(cfg, 2*b)
	if u2 < 0.95 {
		t.Errorf("utilization at 2x min buffer = %v", u2)
	}
}

func TestRunMinBufferSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ladder of simulations")
	}
	res := RunMinBufferSweep(MinBufferConfig{
		Seed:         3,
		Path:         Path{BottleneckRate: 20 * units.Mbps, RTTMin: 60 * units.Millisecond, RTTMax: 100 * units.Millisecond, Warmup: 8 * units.Second, Measure: 12 * units.Second},
		Ns:           []int{20, 100},
		Targets:      []float64{0.98},
		LadderPoints: 7,
	})
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	p20, p100 := res.Points[0], res.Points[1]
	if p20.N != 20 || p100.N != 100 {
		t.Fatalf("points out of order: %+v", res.Points)
	}
	// Core claim: more flows need less buffer.
	if p100.MinBuffer >= p20.MinBuffer {
		t.Errorf("min buffer did not shrink with n: n=20 needs %d, n=100 needs %d",
			p20.MinBuffer, p100.MinBuffer)
	}
	// And the requirement should be within a small factor of the sqrt rule.
	for _, p := range res.Points {
		ratio := float64(p.MinBuffer) / float64(p.SqrtRule)
		if ratio > 4 || ratio < 0.1 {
			t.Errorf("n=%d: min buffer %d vs sqrt rule %d (ratio %.2f)",
				p.N, p.MinBuffer, p.SqrtRule, ratio)
		}
	}
	if len(res.Ladder) == 0 {
		t.Error("ladder samples missing")
	}
}

func TestRunShortFlowBufferRateIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection over simulations")
	}
	points := RunShortFlowBuffer(ShortFlowBufferConfig{
		Seed:     4,
		Rates:    []units.BitRate{20 * units.Mbps, 60 * units.Mbps},
		Load:     0.8,
		FlowLens: []int64{14},
		Stations: 40,
		Path:     Path{Warmup: 5 * units.Second, Measure: 15 * units.Second},
	})
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	// §4's headline: the buffer requirement does not scale with the line
	// rate. Tripling the rate should leave the min buffer within a small
	// factor (vs 3x if it scaled linearly like the BDP does).
	b0, b1 := float64(points[0].MinBuffer), float64(points[1].MinBuffer)
	if b1 > 2.5*b0+5 {
		t.Errorf("min buffer scaled with rate: %v -> %v", b0, b1)
	}
	for _, p := range points {
		if p.BaselineAFCT <= 0 {
			t.Fatalf("baseline AFCT missing: %+v", p)
		}
		if p.AchievedAFCT > units.Duration(float64(p.BaselineAFCT)*1.125)+units.Millisecond {
			t.Errorf("achieved AFCT %v exceeds budget vs baseline %v", p.AchievedAFCT, p.BaselineAFCT)
		}
		// The measured requirement should be in the ballpark of the
		// paper's model bound (same order of magnitude).
		if float64(p.MinBuffer) > 6*p.ModelBuffer+20 {
			t.Errorf("min buffer %d far above model %v", p.MinBuffer, p.ModelBuffer)
		}
	}
}

func TestRunAFCTComparisonSmallBuffersWin(t *testing.T) {
	if testing.Short() {
		t.Skip("two mixed-traffic simulations")
	}
	res := RunAFCTComparison(AFCTComparisonConfig{
		Seed:      5,
		NLong:     60,
		ShortLoad: 0.15,
		Sizes:     workload.GeometricSize(14),
		Path:      Path{BottleneckRate: 20 * units.Mbps, RTTMin: 60 * units.Millisecond, RTTMax: 140 * units.Millisecond, Warmup: 10 * units.Second, Measure: 20 * units.Second},
	})
	if res.RuleThumb.Completed < 100 || res.SqrtRule.Completed < 100 {
		t.Fatalf("too few completed shorts: %+v", res)
	}
	// Fig. 9: small buffers shorten flow completion times...
	if res.SqrtRule.AFCT >= res.RuleThumb.AFCT {
		t.Errorf("AFCT with small buffer (%v) not better than rule-of-thumb (%v)",
			res.SqrtRule.AFCT, res.RuleThumb.AFCT)
	}
	// ...because queueing delay is lower.
	if res.SqrtRule.MeanQueue >= res.RuleThumb.MeanQueue {
		t.Errorf("mean queue with small buffer (%v) not below rule-of-thumb (%v)",
			res.SqrtRule.MeanQueue, res.RuleThumb.MeanQueue)
	}
	// While utilization stays high.
	if res.SqrtRule.Utilization < 0.9 {
		t.Errorf("small-buffer utilization = %v", res.SqrtRule.Utilization)
	}
}

func TestRunProductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("four mixed-traffic simulations")
	}
	rows := RunProduction(ProductionConfig{
		Seed:    6,
		NLong:   30,
		Buffers: []int{8, 40, 300},
		Path:    Path{Warmup: 10 * units.Second, Measure: 20 * units.Second},
	})
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Utilization should be non-decreasing in buffer size and near full
	// for the overbuffered row.
	if !(rows[0].Utilization <= rows[1].Utilization+0.01 && rows[1].Utilization <= rows[2].Utilization+0.01) {
		t.Errorf("utilization not increasing with buffer: %+v", rows)
	}
	if rows[2].Utilization < 0.95 {
		t.Errorf("well-buffered production utilization = %v", rows[2].Utilization)
	}
	if rows[0].MeanConcurrent <= 30 {
		t.Errorf("mean concurrent flows = %v, want > NLong", rows[0].MeanConcurrent)
	}
}

func TestRunSyncAblationDesynchronizesWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow distribution runs")
	}
	points := RunSyncAblation(SyncConfig{
		Seed: 7,
		Ns:   []int{5, 120},
		Path: Path{BottleneckRate: 20 * units.Mbps, RTTMin: 60 * units.Millisecond, RTTMax: 140 * units.Millisecond, Warmup: 10 * units.Second, Measure: 25 * units.Second},
	})
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	// Few flows act like one big flow (high sync index); many flows
	// approach the CLT floor.
	if points[0].SyncIndex <= points[1].SyncIndex {
		t.Errorf("sync index did not fall with n: %v -> %v",
			points[0].SyncIndex, points[1].SyncIndex)
	}
}

func TestBufferLadder(t *testing.T) {
	l := bufferLadder(64, 8)
	if len(l) < 4 {
		t.Fatalf("ladder too short: %v", l)
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("ladder not strictly increasing: %v", l)
		}
	}
	if l[0] < 1 || l[0] > 16 {
		t.Errorf("ladder start %d, want around sqrtRule/8", l[0])
	}
	if l[len(l)-1] < 200 || l[len(l)-1] > 300 {
		t.Errorf("ladder end %d, want ~4x sqrt rule", l[len(l)-1])
	}
	// Degenerate inputs must not panic or produce empty ladders.
	if tiny := bufferLadder(1, 2); len(tiny) == 0 {
		t.Error("ladder for sqrtRule=1 empty")
	}
}

func TestSqrtRuleBufferFloor(t *testing.T) {
	if SqrtRuleBuffer(4, 100000) != 1 {
		t.Error("sqrt-rule buffer should floor at 1 packet")
	}
	defer func() {
		if recover() == nil {
			t.Error("SqrtRuleBuffer(n=0) did not panic")
		}
	}()
	SqrtRuleBuffer(100, 0)
}

func TestRenderers(t *testing.T) {
	// Every result renders through the uniform Result interface: Table()
	// must contain the key values, WriteJSON must produce valid JSON.
	cases := []struct {
		name string
		res  Result
		want string
	}{
		{"utilization", UtilizationTable{{N: 100, Factor: 1, Packets: 129, RAMMbit: 1.0, ModelUtil: 0.999, SimUtil: 0.993}}, "129"},
		{"minbuffer", MinBufferResult{BDPPackets: 1291, Points: []MinBufferPoint{{N: 100, Target: 0.98, MinBuffer: 120, SqrtRule: 129, Achieved: 0.985}}}, "1291"},
		{"shortflow", ShortFlowBufferTable{{Rate: 40 * units.Mbps, FlowLen: 14, MinBuffer: 30, ModelBuffer: 44.2, BaselineAFCT: 300 * units.Millisecond, AchievedAFCT: 330 * units.Millisecond}}, "40Mbps"},
		{"afct", AFCTComparisonResult{BDPPackets: 250, RuleThumb: AFCTOutcome{Label: "RTT*C", BufferPackets: 250, AFCT: 400 * units.Millisecond}, SqrtRule: AFCTOutcome{Label: "RTT*C/sqrt(n)", BufferPackets: 25, AFCT: 250 * units.Millisecond}}, "sqrt"},
		{"production", ProductionTable{{Buffer: 46, SqrtRuleRatio: 0.8, Utilization: 0.974, ModelUtil: 0.959, MeanConcurrent: 400}}, "46"},
		{"sync", SyncTable{{N: 10, SyncIndex: 2.5, KS: 0.1, Mean: 100, StdDev: 20}}, "SyncIndex"},
		{"pacing", PacingTable{{BufferPackets: 10, Factor: 0.25, UtilUnpaced: 0.8, UtilPaced: 0.95}}, "paced"},
		{"smoothing", SmoothingTable{TailAt: 20, Points: []SmoothingPoint{{AccessRatio: 10, TailProb: 0.1, ModelMG1: 0.2, ModelMD1: 0.01, MeanQueue: 4}}}, "M/D/1"},
		{"variants", VariantTable{{Utilization: 0.99, LossRate: 0.01}}, "Variant"},
		{"rttspread", RTTSpreadTable{{Spread: 40 * units.Millisecond, Utilization: 0.99, SyncIndex: 1.2}}, "SyncIndex"},
		{"codel", CoDelTable{{Label: "codel", BufferPackets: 100, Utilization: 0.99}}, "codel"},
		{"harpoon", HarpoonResult{CalibratedN: 40, SqrtRule: 20, Rows: []HarpoonRow{{Factor: 1, Buffer: 20, Utilization: 0.97}}}, "calibrated"},
		{"backbone", BackboneResult{OneSecondBuffer: 1000, SmallBuffer: 50, SqrtRule: 30}, "1s buffer"},
		{"multihop", MultiHopResult{BufferPackets: 20, FlowsPerLink: 80}, "hop 2"},
		{"ecn", ECNResult{BufferPackets: 60}, "ECN"},
		{"longlived", LongLivedResult{N: 100, BufferPackets: 129, Utilization: 0.993}, "129"},
		{"replicated", ReplicatedResult{Replicas: 5, MeanUtilization: 0.99}, "Replicas"},
		{"trace", TraceResult{Completed: 10, AFCT: 100 * units.Millisecond}, "AFCT"},
	}
	for _, tc := range cases {
		var sb strings.Builder
		if err := Render(&sb, tc.res); err != nil {
			t.Errorf("%s: Render: %v", tc.name, err)
			continue
		}
		if !strings.Contains(sb.String(), tc.want) {
			t.Errorf("%s table missing %q:\n%s", tc.name, tc.want, sb.String())
		}
		var jb strings.Builder
		if err := WriteJSON(&jb, tc.res); err != nil {
			t.Errorf("%s: WriteJSON: %v", tc.name, err)
			continue
		}
		if !json.Valid([]byte(jb.String())) {
			t.Errorf("%s: WriteJSON produced invalid JSON:\n%s", tc.name, jb.String())
		}
	}

	// Results carrying non-trivial payloads (histograms, series) render
	// from real runs.
	res := RunWindowDist(WindowDistConfig{
		Seed: 1, N: 4, Path: Path{BottleneckRate: 5 * units.Mbps, Warmup: 3 * units.Second, Measure: 5 * units.Second},
	})
	var sb strings.Builder
	if err := Render(&sb, res); err != nil {
		t.Fatalf("window dist render: %v", err)
	}
	if !strings.Contains(sb.String(), "aggregate window") {
		t.Errorf("window dist render:\n%s", sb.String())
	}
	var jb strings.Builder
	if err := WriteJSON(&jb, res); err != nil {
		t.Fatalf("window dist json: %v", err)
	}
	if !json.Valid([]byte(jb.String())) {
		t.Errorf("window dist JSON invalid:\n%s", jb.String())
	}
	// The dump is the summary view (binned), not the raw samples.
	if !strings.Contains(jb.String(), `"Bins"`) || strings.Contains(jb.String(), `"Samples"`) {
		t.Errorf("window dist WriteJSON ignored jsonView:\n%s", jb.String())
	}
}

func TestMinBufferForUtilizationEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("tiny search bound did not panic")
		}
	}()
	MinBufferForUtilization(scaledLongLived(5, 0), 0.9, 1)
}

func TestFitNormal(t *testing.T) {
	mean, sd := fitNormal([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Errorf("mean = %v", mean)
	}
	if math.Abs(sd-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("sd = %v", sd)
	}
}

// TestTraceUtilizationOneInstant pins the bugfix: the utilization window
// is [first arrival, last arrival + Drain], which is not empty when
// every flow starts at the same instant. It used to read 0 there.
func TestTraceUtilizationOneInstant(t *testing.T) {
	res := RunTrace(TraceConfig{
		Flows: []workload.FlowSpec{{Start: 0, Size: 5000}},
		Path:  Path{BottleneckRate: 10 * units.Mbps},
	})
	if res.Completed != 1 {
		t.Fatalf("completed %d flows, want 1", res.Completed)
	}
	// 5000 segments of 1000 bytes keep a 10 Mb/s link busy for 4 s of
	// the default 60 s drain.
	if res.Utilization < 0.066 || res.Utilization > 0.068 {
		t.Errorf("utilization = %v, want ~0.0667", res.Utilization)
	}
}
