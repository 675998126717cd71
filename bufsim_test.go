package bufsim

import (
	"math"
	"strings"
	"testing"
)

func TestLinkSizingRules(t *testing.T) {
	// The abstract's example: 10 Gb/s, 250 ms, 2.5 Gbit rule-of-thumb.
	l := Link{Rate: 10 * Gbps, RTT: 250 * Millisecond}
	if got := l.RuleOfThumb(); got != 312500 {
		t.Errorf("RuleOfThumb = %d, want 312500 packets", got)
	}
	if got := l.SqrtRule(10000); got != 3125 {
		t.Errorf("SqrtRule(10000) = %d, want 3125 (a 99%% reduction)", got)
	}
	if l.BDP() != l.RuleOfThumb() {
		t.Error("BDP should equal the rule of thumb")
	}
	// Custom segment size halves the packet count for 2x packets.
	l2 := Link{Rate: 10 * Gbps, RTT: 250 * Millisecond, SegmentSize: 500}
	if got := l2.RuleOfThumb(); got != 625000 {
		t.Errorf("RuleOfThumb(500B) = %d", got)
	}
}

func TestLinkPredictUtilization(t *testing.T) {
	l := Link{Rate: OC3, RTT: 100 * Millisecond}
	u1 := l.PredictUtilization(400, l.SqrtRule(400))
	u2 := l.PredictUtilization(400, 2*l.SqrtRule(400))
	if !(u1 > 0.97 && u2 >= u1) {
		t.Errorf("predicted utilizations: 1x=%v 2x=%v", u1, u2)
	}
}

func TestLinkShortFlowBuffer(t *testing.T) {
	l := Link{Rate: OC3, RTT: 100 * Millisecond}
	b := l.ShortFlowBuffer(0.8, 0.025, 14, 43)
	if b < 10 || b > 100 {
		t.Errorf("ShortFlowBuffer = %v, want tens of packets", b)
	}
	// Independent of the link: a 1 Tb/s link needs the same buffer (§4).
	huge := Link{Rate: 1000 * Gbps, RTT: 300 * Millisecond}
	if got := huge.ShortFlowBuffer(0.8, 0.025, 14, 43); got != b {
		t.Errorf("short-flow buffer depends on the link: %v vs %v", got, b)
	}
}

func TestShortFlowBufferForSizes(t *testing.T) {
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	// A degenerate sample reproduces the fixed-length bound.
	fixed := l.ShortFlowBuffer(0.6, 0.025, 14, 43)
	sampled := l.ShortFlowBufferForSizes(0.6, 0.025, []int64{14, 14, 14}, 43)
	if math.Abs(fixed-sampled) > 1e-9 {
		t.Errorf("uniform sample bound %v != fixed bound %v", sampled, fixed)
	}
	// A heavy-tailed sample needs more buffer than its mean length
	// suggests: the big flows emit many max-window bursts.
	tail := l.ShortFlowBufferForSizes(0.6, 0.025, []int64{2, 2, 2, 2, 2, 2, 2, 2, 2, 1000}, 43)
	meanLen := int64((2*9 + 1000) / 10)
	naive := l.ShortFlowBuffer(0.6, 0.025, meanLen, 43)
	if tail <= naive {
		t.Errorf("heavy-tail bound %v not above mean-length bound %v", tail, naive)
	}
}

func TestSimulateMatchesPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	res := Simulate(Simulation{
		Seed:          1,
		Link:          l,
		Flows:         50,
		BufferPackets: 2 * l.SqrtRule(50),
		RTTSpread:     80 * Millisecond,
		Warmup:        8 * Second,
		Measure:       15 * Second,
	})
	if res.Utilization < 0.93 {
		t.Errorf("Utilization = %v", res.Utilization)
	}
	if res.LossRate <= 0 || res.MeanQueuePackets <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestSimulateREDRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	res := Simulate(Simulation{
		Seed: 2, Link: l, Flows: 50, BufferPackets: 3 * l.SqrtRule(50),
		RTTSpread: 80 * Millisecond, RED: true,
		Warmup: 8 * Second, Measure: 15 * Second,
	})
	if res.Utilization < 0.85 {
		t.Errorf("RED Utilization = %v", res.Utilization)
	}
}

func TestSimulateSingleFlowSawtooth(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 10 * Mbps, RTT: 100 * Millisecond}
	res := SimulateSingleFlow(l, 1.0, 1)
	if res.BDPPackets != 125 {
		t.Fatalf("BDP = %d", res.BDPPackets)
	}
	if res.Utilization < 0.999 {
		t.Errorf("Utilization = %v, want ~1", res.Utilization)
	}
	if len(res.CwndTimes) != len(res.CwndValues) || len(res.CwndTimes) == 0 {
		t.Fatal("missing cwnd series")
	}
	// The sawtooth oscillates between ~BDP and ~BDP+B.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range res.CwndValues {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi-lo < 60 {
		t.Errorf("cwnd range [%v, %v] is not a sawtooth", lo, hi)
	}
}

func TestSimulateShortFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	unlimited := SimulateShortFlows(ShortFlowSimulation{
		Seed: 3, Link: l, Load: 0.7, FlowLength: 14,
		Warmup: 5 * Second, Measure: 15 * Second,
	})
	if unlimited.Completed < 500 {
		t.Fatalf("completed = %d", unlimited.Completed)
	}
	tiny := SimulateShortFlows(ShortFlowSimulation{
		Seed: 3, Link: l, Load: 0.7, FlowLength: 14, BufferPackets: 2,
		Warmup: 5 * Second, Measure: 15 * Second,
	})
	if tiny.AFCT <= unlimited.AFCT {
		t.Errorf("2-packet buffer AFCT %v should exceed unlimited %v", tiny.AFCT, unlimited.AFCT)
	}
}

func TestSimulateMixSmallBuffersHelpShorts(t *testing.T) {
	if testing.Short() {
		t.Skip("two mixed-traffic simulations")
	}
	link := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	run := func(buffer int) MixResult {
		return SimulateMix(MixSimulation{
			Seed: 1, Link: link, LongFlows: 60, ShortLoad: 0.15,
			BufferPackets: buffer, RTTSpread: 80 * Millisecond,
			Warmup: 10 * Second, Measure: 20 * Second,
		})
	}
	big := run(link.RuleOfThumb())
	small := run(link.SqrtRule(60))
	if big.ShortsCompleted < 100 || small.ShortsCompleted < 100 {
		t.Fatalf("too few shorts: %d/%d", big.ShortsCompleted, small.ShortsCompleted)
	}
	if small.AFCT >= big.AFCT {
		t.Errorf("small-buffer AFCT %v not better than %v", small.AFCT, big.AFCT)
	}
	if small.Utilization < 0.9 {
		t.Errorf("small-buffer utilization = %v", small.Utilization)
	}
}

func TestSimulateTraceReplaysCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	csv := "start_seconds,size_segments\n0.0,14\n0.5,30\n1.0,14\n1.5,8\n"
	flows, err := ReadFlows(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	res := SimulateTrace(TraceSimulation{
		Seed:  1,
		Link:  Link{Rate: 10 * Mbps, RTT: 100 * Millisecond},
		Flows: flows,
	})
	if res.Completed != 4 || res.Censored != 0 {
		t.Fatalf("completed %d / censored %d", res.Completed, res.Censored)
	}
	if res.AFCT <= 0 || res.AFCT > Second {
		t.Errorf("AFCT = %v", res.AFCT)
	}
	// Four small flows on 10 Mb/s: far from saturation.
	if res.Utilization > 0.2 {
		t.Errorf("utilization = %v, want light", res.Utilization)
	}
	// Empty trace is a no-op.
	if got := SimulateTrace(TraceSimulation{Link: Link{Rate: Mbps, RTT: 50 * Millisecond}}); got.Completed != 0 {
		t.Errorf("empty trace: %+v", got)
	}
}

// TestTraceIsValidatedWhereverItEnters pins the bugfix: a hand-built
// []TraceFlow used to reach the replay unchecked, so a reversed trace
// had its utilization measured from its last arrival to its first (the
// window is Flows[0] to Flows[len-1]) and a Size 0 record became an
// infinite flow. The same check now guards Validate, ReadFlows and (as a
// panic with the same text) SimulateTrace.
func TestTraceIsValidatedWhereverItEnters(t *testing.T) {
	link := Link{Rate: 10 * Mbps, RTT: 80 * Millisecond}
	cases := []struct {
		name, csv, want string
		flows           []TraceFlow
	}{
		{
			name:  "reversed",
			csv:   "9,20\n5,20\n1,20\n",
			want:  "flow record 1: start 5s precedes record 0 (9s)",
			flows: []TraceFlow{{Start: 9 * Second, Size: 20}, {Start: 5 * Second, Size: 20}, {Start: Second, Size: 20}},
		},
		{
			name:  "zero size",
			csv:   "1,20\n5,0\n9,20\n",
			want:  "flow record 1: size 0",
			flows: []TraceFlow{{Start: Second, Size: 20}, {Start: 5 * Second, Size: 0}, {Start: 9 * Second, Size: 20}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := TraceSimulation{Seed: 1, Link: link, Flows: c.flows}
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want an error naming %q", err, c.want)
			}
			if _, rerr := ReadFlows(strings.NewReader(c.csv)); rerr == nil || rerr.Error() != err.Error() {
				t.Errorf("ReadFlows = %v, want %v", rerr, err)
			}
			defer func() {
				if got := recover(); got != err.Error() {
					t.Errorf("SimulateTrace panicked with %v, want %q", got, err)
				}
			}()
			SimulateTrace(cfg)
		})
	}
}

func TestParseHelpers(t *testing.T) {
	d, err := ParseDuration("250ms")
	if err != nil || d != 250*Millisecond {
		t.Errorf("ParseDuration: %v %v", d, err)
	}
	r, err := ParseBitRate("155Mbps")
	if err != nil || r != OC3 {
		t.Errorf("ParseBitRate: %v %v", r, err)
	}
}

func TestMemoryFeasibility(t *testing.T) {
	// The abstract's contrast: 10 Gb/s x 250 ms needs DRAM boards under
	// the rule of thumb, on-chip memory under the sqrt rule.
	l := Link{Rate: 10 * Gbps, RTT: 250 * Millisecond}
	big := l.MemoryFeasibility(l.RuleOfThumb())
	small := l.MemoryFeasibility(l.SqrtRule(50000))
	if big.FitsOnChip {
		t.Error("rule-of-thumb buffer should not fit on chip")
	}
	if big.DRAMKeepsUp {
		t.Error("DRAM should not keep up at 10 Gb/s")
	}
	if !small.FitsOnChip {
		t.Error("sqrt-rule buffer should fit on chip")
	}
	if small.SRAMChips != 1 {
		t.Errorf("sqrt-rule buffer needs %d SRAM chips, want 1", small.SRAMChips)
	}
	if big.Description == "" || small.Description == "" {
		t.Error("descriptions missing")
	}
}

func TestParetoExported(t *testing.T) {
	p := Pareto(1.2, 2, 1000)
	if p.Mean() < 2 || p.Mean() > 1000 {
		t.Errorf("Pareto mean = %v", p.Mean())
	}
}

func TestOptionsOverrideConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 10 * Mbps, RTT: 100 * Millisecond}
	cfg := Simulation{
		Seed: 4, Link: l, Flows: 20, BufferPackets: 2 * l.SqrtRule(20),
		RTTSpread: 40 * Millisecond, Warmup: 5 * Second, Measure: 10 * Second,
	}
	// An option must win over the config field: Simulate(cfg with
	// Variant=Sack) == Simulate(cfg, WithVariant(Sack)).
	viaField := cfg
	viaField.Variant = Sack
	viaField.Paced = true
	a := Simulate(viaField)
	b := Simulate(cfg, WithVariant(Sack), WithPacing(true))
	if a != b {
		t.Errorf("option path diverges from config path:\nfield  %+v\noption %+v", a, b)
	}
	// And a different variant must actually change the run.
	c := Simulate(cfg, WithVariant(Tahoe), WithPacing(true))
	if b == c {
		t.Error("WithVariant had no effect")
	}
}

func TestWithMetricsDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 10 * Mbps, RTT: 100 * Millisecond}
	cfg := Simulation{
		Seed: 5, Link: l, Flows: 20, BufferPackets: 2 * l.SqrtRule(20),
		RTTSpread: 40 * Millisecond, Warmup: 5 * Second, Measure: 10 * Second,
	}
	plain := Simulate(cfg)
	reg := NewRegistry()
	observed := Simulate(cfg, WithMetrics(reg))
	if plain != observed {
		t.Errorf("telemetry changed the result:\noff %+v\non  %+v", plain, observed)
	}
	snap := reg.Snapshot()
	if snap.Counters["sim.events_processed"] <= 0 {
		t.Error("registry not populated")
	}
	if snap.Counters["tcp.flows_tracked"] != 20 {
		t.Errorf("tcp.flows_tracked = %d, want 20", snap.Counters["tcp.flows_tracked"])
	}
}

func TestResultInterface(t *testing.T) {
	// Compact render smoke for every public Result implementation.
	results := []Result{
		SimulationResult{Utilization: 0.99, Timeouts: 3},
		ReplicatedResult{Replicas: 3, MeanUtilization: 0.98, StdDev: 0.01, Min: 0.97, Max: 0.99},
		SingleFlowResult{BDPPackets: 125, BufferPackets: 125, Utilization: 1},
		ShortFlowResult{AFCT: 250 * Millisecond, Completed: 10},
		MixResult{AFCT: 300 * Millisecond, ShortsCompleted: 5, Utilization: 0.97},
		TraceResult{Completed: 4, AFCT: 100 * Millisecond},
		ProfileResult{Utilization: 0.6, PeakActive: 40, Generated: 900, AFCT: 200 * Millisecond, Completed: 850},
		AdversaryResult{BufferPackets: 25, Utilization: 0.42, PeakQueuePackets: 25, SyncIndex: 2.8},
		Memory{SRAMChips: 1, FitsOnChip: true, Description: "fits"},
	}
	for _, res := range results {
		if res.Table() == "" {
			t.Errorf("%T: empty table", res)
		}
		var sb strings.Builder
		if err := WriteJSON(&sb, res); err != nil {
			t.Errorf("%T: WriteJSON: %v", res, err)
		}
		if !strings.HasPrefix(sb.String(), "{") {
			t.Errorf("%T: JSON output %q", res, sb.String())
		}
		// The single-flow dump is its summary view, not the series.
		if _, ok := res.(SingleFlowResult); ok && (!strings.Contains(sb.String(), "CwndSamples") || strings.Contains(sb.String(), "CwndValues")) {
			t.Errorf("%T: WriteJSON ignored jsonView: %s", res, sb.String())
		}
	}
}

// TestWithREDHonoredEverywhere checks the option actually changes the
// bottleneck in every scenario that has one: under RED the queue drops
// early and at random, so the run must differ from its drop-tail twin.
func TestWithREDHonoredEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}

	t.Run("single flow", func(t *testing.T) {
		plain := SimulateSingleFlow(l, 1.0, 3)
		red := SimulateSingleFlow(l, 1.0, 3, WithRED(true))
		if plain.MeanQueue == red.MeanQueue {
			t.Error("WithRED did not change the single-flow queue process")
		}
	})
	t.Run("short flows", func(t *testing.T) {
		cfg := ShortFlowSimulation{
			Seed: 3, Link: l, BufferPackets: 40, Load: 0.7, FlowLength: 14,
			Warmup: 3 * Second, Measure: 8 * Second,
		}
		plain := SimulateShortFlows(cfg)
		red := SimulateShortFlows(cfg, WithRED(true))
		if plain == red {
			t.Error("WithRED did not change the short-flow run")
		}
	})
	t.Run("mix", func(t *testing.T) {
		cfg := MixSimulation{
			Seed: 3, Link: l, LongFlows: 20, ShortLoad: 0.1, BufferPackets: 40,
			RTTSpread: 40 * Millisecond, Warmup: 5 * Second, Measure: 10 * Second,
		}
		plain := SimulateMix(cfg)
		red := SimulateMix(cfg, WithRED(true))
		if plain == red {
			t.Error("WithRED did not change the mixed run")
		}
	})
	t.Run("trace", func(t *testing.T) {
		// Offer more than the line rate so the buffer actually fills.
		var flows []TraceFlow
		for i := 0; i < 300; i++ {
			flows = append(flows, TraceFlow{Start: Duration(i) * 20 * Millisecond, Size: 60})
		}
		cfg := TraceSimulation{Seed: 3, Link: l, Flows: flows, BufferPackets: 20}
		plain := SimulateTrace(cfg)
		red := SimulateTrace(cfg, WithRED(true))
		if plain == red {
			t.Error("WithRED did not change the trace run")
		}
	})
}

func TestValidateRTTSpread(t *testing.T) {
	l := Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}
	ok := Simulation{Link: l, RTTSpread: 80 * Millisecond}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := Simulation{Link: l, RTTSpread: 120 * Millisecond}
	err := bad.Validate()
	if err == nil {
		t.Fatal("spread wider than twice the RTT passed validation")
	}
	if !strings.Contains(err.Error(), "RTTSpread") {
		t.Errorf("error does not name the bad field: %v", err)
	}
	if err := (Simulation{Link: l, RTTSpread: -Millisecond}).Validate(); err == nil {
		t.Error("negative spread passed validation")
	}
	if err := (MixSimulation{Link: l, RTTSpread: 120 * Millisecond}).Validate(); err == nil {
		t.Error("MixSimulation did not validate the spread")
	}
	if err := (TraceSimulation{Link: l, RTTSpread: 120 * Millisecond}).Validate(); err == nil {
		t.Error("TraceSimulation did not validate the spread")
	}
	// Simulate panics with the same message instead of crashing deep in
	// the topology layer.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Simulate with invalid spread did not panic")
		}
		if msg, okType := r.(string); !okType || !strings.Contains(msg, "RTTSpread") {
			t.Errorf("panic message does not explain the problem: %v", r)
		}
	}()
	Simulate(Simulation{Seed: 1, Link: l, Flows: 5, BufferPackets: 10,
		RTTSpread: 120 * Millisecond, Warmup: Second, Measure: Second})
}

func TestSimulateReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	cfg := Simulation{
		Seed: 1, Link: l, Flows: 30, BufferPackets: l.SqrtRule(30),
		RTTSpread: 80 * Millisecond, Warmup: 5 * Second, Measure: 10 * Second,
	}
	a := SimulateReplicated(cfg, 3, WithParallelism(1))
	b := SimulateReplicated(cfg, 3, WithParallelism(3))
	if a != b {
		t.Errorf("replicated results differ across worker counts:\n%+v\n%+v", a, b)
	}
	if a.Replicas != 3 {
		t.Errorf("Replicas = %d, want 3", a.Replicas)
	}
	if a.Min > a.MeanUtilization || a.MeanUtilization > a.Max {
		t.Errorf("mean %v outside [min %v, max %v]", a.MeanUtilization, a.Min, a.Max)
	}
	if a.MeanUtilization < 0.7 || a.MeanUtilization > 1 {
		t.Errorf("MeanUtilization = %v", a.MeanUtilization)
	}
}
