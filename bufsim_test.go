package bufsim

import (
	"math"
	"strings"
	"testing"

	"bufsim/internal/trace"
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

// run is Run for tests: a bad input fails the test.
func run[R Result](t *testing.T, s Scenario, traffic Traffic[R], opts ...Option) R {
	t.Helper()
	res, err := Run(s, traffic, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSimulateMatchesPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	res := run(t, Scenario{
		Seed:          1,
		Link:          l,
		BufferPackets: 2 * l.SqrtRule(50),
		Warmup:        8 * Second,
		Measure:       15 * Second,
	}, LongLived{Flows: 50, RTTSpread: 80 * Millisecond})
	if res.Utilization < 0.93 {
		t.Errorf("Utilization = %v", res.Utilization)
	}
	if res.LossRate <= 0 || res.MeanQueue <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
}

func TestSimulateREDRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	res := run(t, Scenario{
		Seed: 2, Link: l, BufferPackets: 3 * l.SqrtRule(50), RED: true,
		Warmup: 8 * Second, Measure: 15 * Second,
	}, LongLived{Flows: 50, RTTSpread: 80 * Millisecond})
	if res.Utilization < 0.85 {
		t.Errorf("RED Utilization = %v", res.Utilization)
	}
}

func TestSimulateSingleFlowSawtooth(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 10 * Mbps, RTT: 100 * Millisecond}
	res := run(t, Scenario{Seed: 1, Link: l}, SingleFlow{BufferFactor: 1})
	if res.BDPPackets != 125 {
		t.Fatalf("BDP = %d", res.BDPPackets)
	}
	if res.Utilization < 0.999 {
		t.Errorf("Utilization = %v, want ~1", res.Utilization)
	}
	if res.Cwnd.Len() != len(res.Cwnd.Values) || res.Cwnd.Len() == 0 {
		t.Fatal("missing cwnd series")
	}
	// The sawtooth oscillates between ~BDP and ~BDP+B.
	if lo, hi := res.Cwnd.Min(), res.Cwnd.Max(); hi-lo < 60 {
		t.Errorf("cwnd range [%v, %v] is not a sawtooth", lo, hi)
	}
}

func TestSimulateShortFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	shorts := Generated{Workload: PoissonWorkload(0.7, FixedSize(14), 43)}
	s := Scenario{Seed: 3, Link: l, Warmup: 5 * Second, Measure: 15 * Second}
	unlimited := run(t, s, shorts)
	if unlimited.Completed < 500 {
		t.Fatalf("completed = %d", unlimited.Completed)
	}
	s.BufferPackets = 2
	if tiny := run(t, s, shorts); tiny.AFCT <= unlimited.AFCT {
		t.Errorf("2-packet buffer AFCT %v should exceed unlimited %v", tiny.AFCT, unlimited.AFCT)
	}
}

// TestWorkloadSendsTheLinksSegments pins the bugfix: a workload's TCP
// templates left the segment size at zero, so at Link.SegmentSize 500 its
// senders sent 1000-byte segments while its arrival rate was worked out
// for 500-byte ones, offering twice the load asked for. A workload's
// flows now run the scenario's sender at the link's segment size, so the Poisson workload at
// 500 bytes is exactly the short-flow scenario it replaces: the result
// the legacy short-flow entry point produced at 500 bytes.
func TestWorkloadSendsTheLinksSegments(t *testing.T) {
	l := Link{Rate: 10 * Mbps, RTT: 50 * Millisecond, SegmentSize: 500}
	s := Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: Second, Measure: 2 * Second}
	shorts := Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 43)}
	res := run(t, s, shorts)
	want := ProfileResult{Utilization: 0.522534605, LossRate: 0.0003850596842510589, MeanQueue: 2.5051510194999684,
		PeakQueue: 30, MeanActive: 13.238095238095237, PeakActive: 21, Generated: 301, AFCT: 139484627, Completed: 186}
	if res != want {
		t.Errorf("result moved:\ngot  %+v\nwant the legacy short-flow run's %+v", res, want)
	}
	// 0.5 x 10 Mb/s over 14 x 500-byte flows is ~89 arrivals a second,
	// ~268 over the 3 s run; 1000-byte senders launched half that.
	if res.Generated < 230 {
		t.Errorf("launched %d flows, want ~268", res.Generated)
	}
}

func TestSimulateMixSmallBuffersHelpShorts(t *testing.T) {
	if testing.Short() {
		t.Skip("two mixed-traffic simulations")
	}
	link := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	mix := func(buffer int) MixResult {
		return run(t, Scenario{
			Seed: 1, Link: link, BufferPackets: buffer,
			Warmup: 10 * Second, Measure: 20 * Second,
		}, Mix{LongFlows: 60, ShortLoad: 0.15, RTTSpread: 80 * Millisecond})
	}
	big := mix(link.RuleOfThumb())
	small := mix(link.SqrtRule(60))
	if big.Completed < 100 || small.Completed < 100 {
		t.Fatalf("too few shorts: %d/%d", big.Completed, small.Completed)
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
	res := run(t, Scenario{Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 100 * Millisecond}}, Trace{Flows: flows})
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
	if got := run(t, Scenario{Link: Link{Rate: Mbps, RTT: 50 * Millisecond}}, Trace{}); got.Completed != 0 {
		t.Errorf("empty trace: %+v", got)
	}
}

// TestTraceIsValidatedWhereverItEnters pins the bugfix: a hand-built
// []TraceFlow used to reach the replay unchecked, so a reversed trace
// had its utilization measured from its last arrival to its first (the
// window is Flows[0] to Flows[len-1]) and a Size 0 record became an
// infinite flow. The same check guards ReadFlows and both kinds a trace
// can run as, Trace and a TraceWorkload under Generated.
func TestTraceIsValidatedWhereverItEnters(t *testing.T) {
	s := Scenario{Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 80 * Millisecond}}
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
			_, rerr := ReadFlows(strings.NewReader(c.csv))
			if rerr == nil || !strings.Contains(rerr.Error(), c.want) {
				t.Fatalf("ReadFlows = %v, want an error naming %q", rerr, c.want)
			}
			if _, err := Run(s, Trace{Flows: c.flows}); err == nil || !strings.Contains(err.Error(), rerr.Error()) {
				t.Errorf("Run(Trace) = %v, want %q", err, rerr)
			}
			if _, err := Run(s, Generated{Workload: TraceWorkload(c.flows, 0)}); err == nil || !strings.Contains(err.Error(), rerr.Error()) {
				t.Errorf("Run(Generated{TraceWorkload}) = %v, want %q", err, rerr)
			}
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

func TestWithMetricsDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 10 * Mbps, RTT: 100 * Millisecond}
	s := Scenario{Seed: 5, Link: l, BufferPackets: 2 * l.SqrtRule(20), Warmup: 5 * Second, Measure: 10 * Second}
	flows := LongLived{Flows: 20, RTTSpread: 40 * Millisecond}
	plain := run(t, s, flows)
	reg := NewRegistry()
	observed := run(t, s, flows, WithMetrics(reg))
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
		SimulationResult{N: 10, Utilization: 0.99, Timeouts: 3},
		ReplicatedResult{Replicas: 3, MeanUtilization: 0.98, StdDev: 0.01, Min: 0.97, Max: 0.99},
		SingleFlowResult{BDPPackets: 125, BufferPackets: 125, Utilization: 1, Cwnd: &trace.Series{}, Queue: &trace.Series{}},
		MixResult{Label: "mixed", AFCT: 300 * Millisecond, Completed: 5, Utilization: 0.97},
		TraceResult{Completed: 4, AFCT: 100 * Millisecond},
		ProfileResult{Utilization: 0.6, PeakActive: 40, Generated: 900, AFCT: 200 * Millisecond, Completed: 850},
		AdversaryResult{Pattern: AdversarySyncAIMD, BufferPackets: 25, Utilization: 0.42, PeakQueue: 25, SyncIndex: 2.8},
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
		if _, ok := res.(SingleFlowResult); ok && (!strings.Contains(sb.String(), "CwndSamples") || strings.Contains(sb.String(), "Values")) {
			t.Errorf("%T: WriteJSON ignored jsonView: %s", res, sb.String())
		}
	}
}

// TestWithREDHonoredEverywhere checks Scenario.RED actually changes the
// bottleneck in every kind that has one: under RED the queue drops early
// and at random, so the run must differ from its drop-tail twin.
func TestWithREDHonoredEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	red := func(s Scenario) Scenario { s.RED = true; return s }

	t.Run("single flow", func(t *testing.T) {
		s := Scenario{Seed: 3, Link: l}
		if plain, red := run(t, s, SingleFlow{BufferFactor: 1}), run(t, red(s), SingleFlow{BufferFactor: 1}); plain.MeanQueue == red.MeanQueue {
			t.Error("RED did not change the single-flow queue process")
		}
	})
	t.Run("short flows", func(t *testing.T) {
		s := Scenario{Seed: 3, Link: l, BufferPackets: 40, Warmup: 3 * Second, Measure: 8 * Second}
		shorts := Generated{Workload: PoissonWorkload(0.7, FixedSize(14), 43)}
		if run(t, s, shorts) == run(t, red(s), shorts) {
			t.Error("RED did not change the short-flow run")
		}
	})
	t.Run("mix", func(t *testing.T) {
		s := Scenario{Seed: 3, Link: l, BufferPackets: 40, Warmup: 5 * Second, Measure: 10 * Second}
		mix := Mix{LongFlows: 20, ShortLoad: 0.1, RTTSpread: 40 * Millisecond}
		if run(t, s, mix) == run(t, red(s), mix) {
			t.Error("RED did not change the mixed run")
		}
	})
	t.Run("trace", func(t *testing.T) {
		// Offer more than the line rate so the buffer actually fills.
		var flows []TraceFlow
		for i := 0; i < 300; i++ {
			flows = append(flows, TraceFlow{Start: Duration(i) * 20 * Millisecond, Size: 60})
		}
		s := Scenario{Seed: 3, Link: l, BufferPackets: 20}
		if run(t, s, Trace{Flows: flows}) == run(t, red(s), Trace{Flows: flows}) {
			t.Error("RED did not change the trace run")
		}
	})
}

// TestValidateRTTSpread: station RTTs span Link.RTT +- RTTSpread/2, so a
// spread of twice the RTT or more, or a negative one, is an error that
// names RTTSpread in every kind that has one — not a panic deep in the
// topology layer.
func TestValidateRTTSpread(t *testing.T) {
	s := Scenario{Seed: 1, Link: Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}, BufferPackets: 10, Warmup: Second, Measure: Second}
	if _, err := Run(s, LongLived{Flows: 5, RTTSpread: 80 * Millisecond}); err != nil {
		t.Errorf("valid spread rejected: %v", err)
	}
	for _, spread := range []Duration{100 * Millisecond, 120 * Millisecond, -Millisecond} {
		for name, run := range map[string]func(Scenario, ...Option) (any, error){
			"LongLived": kind(LongLived{Flows: 5, RTTSpread: spread}),
			"Mix":       kind(Mix{LongFlows: 5, ShortLoad: 0.2, RTTSpread: spread}),
			"Trace":     kind(Trace{RTTSpread: spread}),
		} {
			if _, err := run(s); err == nil || !strings.Contains(err.Error(), name+".RTTSpread") {
				t.Errorf("%s with spread %v: error %v does not name %s.RTTSpread", name, spread, err, name)
			}
		}
	}
}

func TestSimulateReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	l := Link{Rate: 20 * Mbps, RTT: 100 * Millisecond}
	s := Scenario{Seed: 1, Link: l, BufferPackets: l.SqrtRule(30), Warmup: 5 * Second, Measure: 10 * Second}
	reps := Replicated{LongLived{Flows: 30, RTTSpread: 80 * Millisecond}, 3}
	a := run(t, s, reps, WithParallelism(1))
	b := run(t, s, reps, WithParallelism(3))
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
