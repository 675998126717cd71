package bufsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// tempCache opens a result cache in a fresh directory.
func tempCache(t *testing.T) (*Cache, string) {
	t.Helper()
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cache, dir
}

// TestRunMatchesLegacyKeys pins each traffic kind's lowering to the
// simulation the entry point it replaced ran (Simulate,
// SimulateReplicated, SimulateSingleFlow, SimulateShortFlows, SimulateMix,
// SimulateTrace, SimulateProfile, SimulateAdversary), by result. The rows
// used to pin the blob keys those entry points stored; the keys moved
// with the run-cache salt, so each row now holds the result its scenario
// produced before the move, recorded field for field — save the RED
// row's queue figures, measured since the link measures every
// discipline's queue, and the Simulate, SimulateReplicated, SimulateMix
// and SimulateAdversary rows, re-recorded when a late ACK began to raise
// the sender's sndNxt (a timeout's go-back-N no longer resends data the
// receiver holds), and the SimulateMix row again when a short flow's
// teardown began to wait for its sender (its delayed final ACK no longer
// falls on the floor, leaving the sender to resend forever). A single flow's
// series are pinned by length and by the SHA-256 of their JSON.
func TestRunMatchesLegacyKeys(t *testing.T) {
	l := Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}
	const w, m = Second, 2 * Second
	flows := []TraceFlow{{Start: 0, Size: 10}, {Start: 100 * Millisecond, Size: 30}, {Start: 300 * Millisecond, Size: 5}}
	long := LongLived{Flows: 8, RTTSpread: 20 * Millisecond}
	cases := []struct {
		name string
		s    Scenario
		run  func(Scenario, ...Option) (any, error)
		want any
	}{
		{"Simulate", Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: w, Measure: m,
			Sender: Sender{Variant: Sack, DelayedAck: true}}, kind(long),
			SimulationResult{N: 8, BufferPackets: 20, Utilization: 0.827411391, LossRate: 0.01759391345696624,
				MeanQueue: 6.308010027999988, RetransmitFraction: 0.03301435406698565, Timeouts: 6,
				QueueDelayMean: 6101689, QueueDelayP99: 15774796, Fairness: 0.8399132724794718}},
		{"SimulateReplicated", Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: w, Measure: m, RED: true}, kind(Replicated{long, 2}),
			ReplicatedResult{Replicas: 2, MeanUtilization: 0.799034384, StdDev: 0.03542660905890994, Min: 0.7739839885, Max: 0.8240847795}},
		{"SimulateSingleFlow", Scenario{Seed: 3, Link: l, Sender: Sender{Variant: Cubic, Paced: true}}, kind(SingleFlow{BufferFactor: 0.5}),
			singleFlowPin{SingleFlowResult{BDPPackets: 63, BufferPackets: 31, Utilization: 0.98389404353,
				MeanQueue: 18.187990600469977, MinQueueSeen: 0}, 20001,
				"dcba44d58574580f91afbc28f7dfb3b6b2ed2d368dcb038c136e436d00e531cc"}},
		{"SimulateShortFlows", Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: w, Measure: m, RED: true,
			Sender: Sender{Variant: NewReno}}, kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 43)}),
			ProfileResult{Utilization: 0.4488, MeanQueue: 1.4372075560000006, PeakQueue: 20,
				MeanActive: 5.333333333333333, PeakActive: 9, Generated: 119, AFCT: 138229982, Completed: 78}},
		{"SimulateMix", Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: w, Measure: m,
			Sender: Sender{DelayedAck: true}}, kind(Mix{LongFlows: 4, ShortLoad: 0.2, RTTSpread: 20 * Millisecond}),
			MixResult{Label: "mixed", BufferPackets: 30, AFCT: 222413489, Completed: 37,
				Utilization: 0.766171999, MeanQueue: 6.8522275844999285}},
		{"SimulateTrace", Scenario{Seed: 1, Link: l, BufferPackets: 30, Sender: Sender{Paced: true}}, kind(Trace{Flows: flows}),
			TraceResult{Completed: 3, AFCT: 170786516, Utilization: 0.0005970149253731343}},
		{"SimulateProfile", Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: w, Measure: m,
			Sender: Sender{Variant: Sack}}, kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 16), Stations: 10, Drain: 5 * Second}),
			ProfileResult{Utilization: 0.6032, MeanQueue: 3.0095519399999837, PeakQueue: 26,
				MeanActive: 8.571428571428571, PeakActive: 14, Generated: 160, AFCT: 153479210, Completed: 106}},
		{"SimulateAdversary", Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: w, Measure: m}, kind(Adversary{Pattern: AdversarySyncAIMD, Flows: 4}),
			AdversaryResult{Pattern: AdversarySyncAIMD, BufferFactor: 0.31746031746031744, BufferPackets: 20,
				Utilization: 0.9148512, LossRate: 0.003472222222222222, MeanQueue: 6.061295999999965,
				PeakQueue: 20, SyncIndex: 1.8947824836303166}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run(c.s)
			if err != nil {
				t.Fatal(err)
			}
			if sf, ok := res.(SingleFlowResult); ok {
				res = pinSingleFlow(t, sf)
			}
			if !reflect.DeepEqual(res, c.want) {
				t.Errorf("result moved:\ngot  %+v\nwant %+v", res, c.want)
			}
		})
	}
}

// singleFlowPin is a SingleFlowResult with its two series replaced by
// their common length and the SHA-256 of their JSON.
type singleFlowPin struct {
	SingleFlowResult
	Points int
	Series string
}

func pinSingleFlow(t *testing.T, r SingleFlowResult) singleFlowPin {
	t.Helper()
	b, err := json.Marshal([2]any{r.Cwnd, r.Queue})
	if err != nil {
		t.Fatal(err)
	}
	if r.Cwnd.Len() != r.Queue.Len() {
		t.Errorf("series lengths differ: cwnd %d, queue %d", r.Cwnd.Len(), r.Queue.Len())
	}
	points, sum := r.Cwnd.Len(), sha256.Sum256(b)
	r.Cwnd, r.Queue = nil, nil
	return singleFlowPin{r, points, hex.EncodeToString(sum[:])}
}

// TestRunRejectsBadInput: every input that cannot be run is an error
// naming the field at fault, returned rather than panicked — including a
// Scenario field the kind does not read.
func TestRunRejectsBadInput(t *testing.T) {
	l := Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}
	ok := Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: Second, Measure: Second}
	with := func(edit func(*Scenario)) Scenario {
		s := ok
		edit(&s)
		return s
	}
	long := LongLived{Flows: 5}
	noWindow := with(func(s *Scenario) { s.Warmup, s.Measure = 0, 0 })
	population, err := ProfileWorkload(Profile{Name: "population", Population: ProfileCurve{{V: 2}}}, nil, -3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		want string
		s    Scenario
		run  func(Scenario, ...Option) (any, error)
	}{
		{"LongLived.Flows", ok, kind(LongLived{})},
		{"Scenario.RED", with(func(s *Scenario) { s.RED, s.BufferPackets = true, 0 }), kind(long)},
		{"Replicated.Replicas", ok, kind(Replicated{LongLived: long})},
		{"Generated.Workload", ok, kind(Generated{})},
		{"Generated.Workload", ok, kind(Generated{Workload: PoissonWorkload(1.5, FixedSize(14), 0)})},
		{"Generated.Workload", ok, kind(Generated{Workload: PoissonWorkload(0.5, nil, 0)})},
		{"Generated.Workload", ok, kind(Generated{Workload: SessionWorkload(0, FixedSize(4), Second, 0)})},
		{"Generated.Stations", ok, kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 0), Stations: -1})},
		{"Mix.ShortLoad", ok, kind(Mix{LongFlows: 5, ShortLoad: -0.5})},
		{"Mix.LongFlows", ok, kind(Mix{ShortLoad: 0.2})},
		{"Scenario.BufferPackets", with(func(s *Scenario) { s.BufferPackets = 0 }), kind(Mix{LongFlows: 5, ShortLoad: 0.2})},
		{"Scenario.Link.RTT", with(func(s *Scenario) { s.Link.RTT = 0 }), kind(long)},
		{"Scenario.Link.Rate", with(func(s *Scenario) { s.Link.Rate = 0 }), kind(long)},
		{"Scenario.BufferPackets", with(func(s *Scenario) { s.BufferPackets = -1 }), kind(long)},
		{"Scenario.Measure", with(func(s *Scenario) { s.Measure = -Second }), kind(long)},
		{"Adversary.Flows", ok, kind(Adversary{Pattern: AdversaryPulse})},
		{"Adversary.Pattern", ok, kind(Adversary{Pattern: 7, Flows: 4})},
		{"Scenario.RED", with(func(s *Scenario) { s.RED = true }), kind(Adversary{Flows: 4})},
		{"Scenario.Sender", with(func(s *Scenario) { s.Sender.Variant = Sack }), kind(Adversary{Flows: 4})},
		{"Trace.Flows", noWindow, kind(Trace{Flows: []TraceFlow{{Start: 2 * Second, Size: 5}, {Start: Second, Size: 5}}})},
		{"Trace.Flows", noWindow, kind(Trace{Flows: []TraceFlow{{Size: 0}}})},
		{"Scenario.Warmup", ok, kind(Trace{})},
		{"SingleFlow.BufferFactor", with(func(s *Scenario) { s.BufferPackets = 0 }), kind(SingleFlow{})},
		{"Scenario.BufferPackets", ok, kind(SingleFlow{BufferFactor: 1})},
		{"Scenario.Warmup", with(func(s *Scenario) { s.BufferPackets, s.Measure = 0, 0 }), kind(SingleFlow{BufferFactor: 1})},
		{"Scenario.Measure", with(func(s *Scenario) { s.BufferPackets, s.Warmup = 0, 0 }), kind(SingleFlow{BufferFactor: 1})},
		{"Scenario.Sender.Variant", with(func(s *Scenario) { s.Sender.Variant = Variant(42) }), kind(long)},
		{"Scenario.Sender.Variant", with(func(s *Scenario) { s.Sender.Variant = Variant(-1) }), kind(long)},
		{"PoissonWorkload maxWindow", ok, kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(30), -3)})},
		{"SessionWorkload maxWindow", ok, kind(Generated{Workload: SessionWorkload(4, FixedSize(30), Second, -3)})},
		{"TraceWorkload maxWindow", ok, kind(Generated{Workload: TraceWorkload([]TraceFlow{{Size: 30}}, -3)})},
		{"ProfileWorkload maxWindow", ok, kind(Generated{Workload: population})},
		{"Scenario.Link.RTT", with(func(s *Scenario) { s.Link.RTT = 8 * Millisecond }), kind(long)},
		{"Scenario.Link.RTT", with(func(s *Scenario) { s.Link.RTT = 30 * Millisecond }), kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 0)})},
		{"Scenario.Link.RTT", Scenario{Link: Link{Rate: 10 * Mbps, RTT: 1}, BufferPackets: 100, Warmup: Second, Measure: Second},
			kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 0)})},
		{"Scenario.Link.Rate", Scenario{Link: Link{Rate: 1, RTT: 10 * Millisecond}, BufferPackets: 5, Warmup: Second, Measure: Second},
			kind(Adversary{Pattern: AdversaryPulse, Flows: 10})},
		{"Adversary.Flows", Scenario{Link: Link{Rate: 10, RTT: Second, SegmentSize: 1}, BufferPackets: 5, Warmup: Second, Measure: Second},
			kind(Adversary{Pattern: AdversaryPulse, Flows: 50})},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%d-%s", i, c.want), func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if _, err := c.run(c.s); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v does not name %s", err, c.want)
			}
		})
	}
}

// TestChurnAllocatesPerFlowAlive: a churn run's memory follows the flows
// alive at once, not the flows it launched. The repository benchmark's
// churn_red_sack scenario (bufsim -rate 100Mbps -flows 50 -workload
// constant -red -variant sack -warmup 1s) runs with a 6 s and a 12 s
// window: the longer run launches ~4 400 more flows with the same ~600
// alive at the peak, and may allocate at most 24 B more for each. A flow
// used to cost ~190 B that stayed live: an agents-table entry, a
// completion closure and a topology.Flow of its own. Under delayed ACKs a
// flow whose sender has not finished when it is detached used to cost a
// closure more, ~14 B per flow launched; now at most 8 B.
func TestChurnAllocatesPerFlowAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	t.Run("ack-every-segment", func(t *testing.T) { churnAllocates(t, Sender{Variant: Sack}, 24) })
	t.Run("delayed-ack", func(t *testing.T) { churnAllocates(t, Sender{Variant: Sack, DelayedAck: true}, 8) })
}

// churnAllocates runs TestChurnAllocatesPerFlowAlive's scenario under
// sender and fails if the longer window allocates more than bound bytes
// per extra flow launched.
func churnAllocates(t *testing.T, sender Sender, bound float64) {
	run := func(measure Duration) (flows int64, bytes uint64) {
		s := Scenario{Seed: 1, Link: Link{Rate: 100 * Mbps, RTT: 100 * Millisecond}, BufferPackets: 177,
			Warmup: Second, Measure: measure, RED: true, Sender: sender}
		sizes := FixedSize(14)
		w, err := ProfileWorkload(ConstantProfile.Profile().ScaleTo(ArrivalRate(0.85, s.Link, sizes), 50), sizes, 0)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(s, Generated{Workload: w})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res.Generated, after.TotalAlloc - before.TotalAlloc
	}
	short, shortBytes := run(6 * Second)
	long, longBytes := run(12 * Second)
	perFlow := (float64(longBytes) - float64(shortBytes)) / float64(long-short)
	t.Logf("%d flows: %d B; %d flows: %d B; %.1f B per extra flow", short, shortBytes, long, longBytes, perFlow)
	if long-short < 4000 || perFlow > bound {
		t.Errorf("%d more flows launched, %.1f B allocated for each; want thousands, at most %v B each", long-short, perFlow, bound)
	}
}
