package experiment

import (
	"reflect"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/probe"
	"bufsim/internal/runcache"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

// quickAdversarial is a fast grid covering every pattern at a small and
// a full-BDP buffer.
func quickAdversarial() AdversarialConfig {
	return AdversarialConfig{
		Scenario: Scenario{Seed: 11,
			Path: Path{BottleneckRate: 20 * units.Mbps, RTTMin: 80 * units.Millisecond, Warmup: 2 * units.Second, Measure: 4 * units.Second}},
		AdversaryCohort: AdversaryCohort{N: 8, Hops: 2},
		BufferFactors:   []float64{0.1, 1.0},
	}
}

func TestRunAdversarialFailureModes(t *testing.T) {
	table := RunAdversarial(quickAdversarial())
	if len(table) != 3*2 {
		t.Fatalf("table has %d rows, want 6", len(table))
	}
	byPattern := map[adversary.Pattern][]AdversarialRow{}
	for _, r := range table {
		if r.Utilization < 0 || r.Utilization > 1.000001 {
			t.Errorf("%v@%.2fx: utilization %v out of range", r.Pattern, r.BufferFactor, r.Utilization)
		}
		if r.BufferPackets < 1 || r.PeakQueue > r.BufferPackets {
			t.Errorf("%v@%.2fx: peak queue %d exceeds buffer %d", r.Pattern, r.BufferFactor, r.PeakQueue, r.BufferPackets)
		}
		byPattern[r.Pattern] = append(byPattern[r.Pattern], r)
	}

	// Pulse: the synchronized bursts overload any buffer in the ladder
	// (the burst excess exceeds even a full BDP), and a bigger buffer
	// absorbs more of each burst.
	pulse := byPattern[adversary.PatternPulse]
	if pulse[0].LossRate <= pulse[1].LossRate {
		t.Errorf("pulse loss %.4f at 0.1x should exceed %.4f at 1.0x", pulse[0].LossRate, pulse[1].LossRate)
	}
	if pulse[1].LossRate == 0 {
		t.Errorf("pulse at a full BDP lost nothing; bursts should defeat the rule-of-thumb buffer")
	}

	// SyncAIMD: the cohort stays synchronized — the aggregate window
	// swings well above the desynchronized CLT prediction.
	for _, r := range byPattern[adversary.PatternSyncAIMD] {
		if r.SyncIndex < 1.2 {
			t.Errorf("aimdsync@%.2fx: sync index %.2f; cohort should stay synchronized", r.BufferFactor, r.SyncIndex)
		}
	}

	// The parking lot reports the worst link; with every link equally
	// loaded the through flows still moved traffic on all hops.
	for _, r := range byPattern[adversary.PatternParkingLot] {
		if r.SyncIndex != 0 {
			t.Errorf("parkinglot@%.2fx: unexpected sync index %v", r.BufferFactor, r.SyncIndex)
		}
		if r.Utilization == 0 {
			t.Errorf("parkinglot@%.2fx: zero utilization", r.BufferFactor)
		}
	}
}

func TestRunAdversarialParallelismInvariance(t *testing.T) {
	serial := quickAdversarial()
	serial.Parallelism = 1
	parallel := quickAdversarial()
	parallel.Parallelism = 4
	a, b := RunAdversarial(serial), RunAdversarial(parallel)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("worker count changed the table:\n%v\n%v", a, b)
	}
}

func TestRunAdversarialAuditedAndCached(t *testing.T) {
	cache, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickAdversarial()
	cfg.Audit = audit.New()
	cfg.Cache = cache
	audited := RunAdversarial(cfg)
	if err := cfg.Audit.Err(); err != nil {
		t.Fatalf("adversarial sweep under audit: %v", err)
	}

	// The audited pass warmed the cache; a plain run must replay it
	// bit-identically, and auditing must not have perturbed the rows.
	plain := quickAdversarial()
	plain.Cache = cache
	before := cache.Stats()
	cached := RunAdversarial(plain)
	if hits := cache.Stats().Hits - before.Hits; hits < int64(len(cached)) {
		t.Errorf("cached rerun hit %d times, want >= %d", hits, len(cached))
	}
	if !reflect.DeepEqual(audited, cached) {
		t.Errorf("audit or caching perturbed the table:\n%v\n%v", audited, cached)
	}
}

func TestRunProbeLadder(t *testing.T) {
	table := RunProbeLadder(ProbeLadderConfig{Seed: 3, Limits: []int{16, 64, 256}})
	if len(table) != 3*3 {
		t.Fatalf("table has %d rows, want 9", len(table))
	}
	for _, r := range table {
		if !r.Correct {
			t.Errorf("%v limit %d classified as %v", r.Discipline, r.Limit, r.Classified)
		}
		if r.ErrPct > 15 {
			t.Errorf("%v limit %d estimated %d (%.1f%% off, want <= 15%%)", r.Discipline, r.Limit, r.Estimated, r.ErrPct)
		}
		if r.Mode != probe.PacketLimited {
			t.Errorf("%v limit %d mode %v", r.Discipline, r.Limit, r.Mode)
		}
	}
}

func TestAdversarialDefaults(t *testing.T) {
	cfg := AdversarialConfig{}.withDefaults()
	if len(cfg.Patterns) != len(adversary.PatternNames()) {
		t.Errorf("default patterns = %v", cfg.Patterns)
	}
	if cfg.N == 0 || cfg.BottleneckRate == 0 || cfg.RTTMin == 0 || len(cfg.BufferFactors) == 0 {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
	if cfg.PulsePeakFactor <= 1 {
		t.Errorf("default pulse peak factor %.1f must exceed the line rate", cfg.PulsePeakFactor)
	}
}

// TestUnreadScenarioFieldsCleared: the adversarial patterns and the
// multi-hop chain fix their own queues (and the patterns their
// transport), so a Queue or Sender set on their configs must neither
// reach the run nor split the cache key.
func TestUnreadScenarioFieldsCleared(t *testing.T) {
	set := Scenario{Seed: 3, Queue: REDECN, Sender: Sender{Variant: tcp.Sack, Paced: true, DelayedAck: true}}
	bare := Scenario{Seed: 3}
	if got, want := (AdversaryScenario{Scenario: set}).withDefaults(), (AdversaryScenario{Scenario: bare}).withDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("AdversaryScenario keeps Queue/Sender: %+v", got.Scenario)
	}
	if got, want := (AdversarialConfig{Scenario: set}).withDefaults(), (AdversarialConfig{Scenario: bare}).withDefaults(); !reflect.DeepEqual(got, want) {
		t.Errorf("AdversarialConfig keeps Queue/Sender: %+v", got.Scenario)
	}
	got := (MultiHopConfig{Scenario: set}).withDefaults()
	if got.Queue != DropTail || got.Sender != set.Sender {
		t.Errorf("MultiHopConfig: Queue %v, Sender %+v; want droptail and the caller's sender", got.Queue, got.Sender)
	}
}
