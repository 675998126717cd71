package bufsim

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
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

// cachedKeys lists the result keys stored under dir: the names of its
// objects/<key[:2]>/<key>.json blobs, sorted.
func cachedKeys(t *testing.T, dir string) []string {
	t.Helper()
	var keys []string
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			keys = append(keys, strings.TrimSuffix(d.Name(), ".json"))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestRunMatchesLegacyKeys pins each traffic kind's lowering to the
// experiment config the entry point it replaced built. The keys are the
// blobs those entry points (Simulate, SimulateReplicated,
// SimulateSingleFlow, SimulateShortFlows, SimulateMix, SimulateTrace,
// SimulateAdversary) stored for these exact scenarios, options included,
// recorded before they were deleted: the same key is the same config
// digest, hence the same simulation. SimulateProfile is the exception:
// filling the workload's segment size from the link moved its key, so its
// row pins the recorded result instead — at 1000-byte segments the fill
// changes nothing that is simulated.
func TestRunMatchesLegacyKeys(t *testing.T) {
	l := Link{Rate: 10 * Mbps, RTT: 50 * Millisecond}
	const w, m = Second, 2 * Second
	flows := []TraceFlow{{Start: 0, Size: 10}, {Start: 100 * Millisecond, Size: 30}, {Start: 300 * Millisecond, Size: 5}}
	long := LongLived{Flows: 8, RTTSpread: 20 * Millisecond}
	cases := []struct {
		name string
		s    Scenario
		run  func(Scenario, ...Option) (any, error)
		keys []string
		want any // for the one row whose key moved
	}{
		{"Simulate", Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: w, Measure: m,
			Sender: Sender{Variant: Sack, DelayedAck: true}}, kind(long),
			[]string{"4581b2d0422b99f0be68a0998258863cf7523ceca47f8209b712d3e5c3c97368"}, nil},
		{"SimulateReplicated", Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: w, Measure: m, RED: true}, kind(Replicated{long, 2}),
			[]string{"0381c26d2a219de205d4f753ad499b7cc8de6ca2e7aeaed097c3412d5e3c3829",
				"193cd0ac7f661a6e1e7f0b49ffbe50a29ae7bec6ddcd7ee7196c4fb559a142b8"}, nil},
		{"SimulateSingleFlow", Scenario{Seed: 3, Link: l, Sender: Sender{Variant: Cubic, Paced: true}}, kind(SingleFlow{BufferFactor: 0.5}),
			[]string{"d1708bb2962c4c8756da61bc6d2f69a57d00d7e6065e05f0593e6909431315ed"}, nil},
		{"SimulateShortFlows", Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: w, Measure: m, RED: true,
			Sender: Sender{Variant: NewReno}}, kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 43)}),
			[]string{"77735ada1575e7785f6112dec84874f847985f0263756d80edd020300f319c3e"}, nil},
		{"SimulateMix", Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: w, Measure: m,
			Sender: Sender{DelayedAck: true}}, kind(Mix{LongFlows: 4, ShortLoad: 0.2, RTTSpread: 20 * Millisecond}),
			[]string{"0a32857ebff190a3d24e5a5f1d7956b532bab5212a022e93cf54d170dbffa16c"}, nil},
		{"SimulateTrace", Scenario{Seed: 1, Link: l, BufferPackets: 30, Sender: Sender{Paced: true}}, kind(Trace{Flows: flows}),
			[]string{"37f811b79c006b9e094550b9177af43844572be8bad739373ab89b6edfbac37b"}, nil},
		{"SimulateProfile", Scenario{Seed: 1, Link: l, BufferPackets: 30, Warmup: w, Measure: m,
			Sender: Sender{Variant: Sack}}, kind(Generated{Workload: PoissonWorkload(0.5, FixedSize(14), 16), Stations: 10, Drain: 5 * Second}),
			nil, ProfileResult{Utilization: 0.6032, MeanQueue: 3.0095519399999837, PeakQueue: 26,
				MeanActive: 8.571428571428571, PeakActive: 14, Generated: 160, AFCT: 153479210, Completed: 106}},
		{"SimulateAdversary", Scenario{Seed: 1, Link: l, BufferPackets: 20, Warmup: w, Measure: m}, kind(Adversary{Pattern: AdversarySyncAIMD, Flows: 4}),
			[]string{"a005d814b67eaf63fcbff5cdfd75fe70cc1dbcf62468c73a1bbea0018acdbd94"}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cache, dir := tempCache(t)
			res, err := c.run(c.s, WithCacheStore(cache))
			if err != nil {
				t.Fatal(err)
			}
			if c.want != nil {
				if !reflect.DeepEqual(res, c.want) {
					t.Errorf("result moved:\ngot  %+v\nwant %+v", res, c.want)
				}
				return
			}
			if got := cachedKeys(t, dir); !reflect.DeepEqual(got, c.keys) {
				t.Errorf("keys = %q, want %q", got, c.keys)
			}
		})
	}
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
