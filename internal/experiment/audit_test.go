package experiment

import (
	"math/rand"
	"testing"

	"bufsim/internal/adversary"
	"bufsim/internal/audit"
	"bufsim/internal/tcp"
	"bufsim/internal/units"
	"bufsim/internal/workload"
)

// TestRandomScenariosUnderAudit is the randomized end-to-end property
// test: small simulations with randomly drawn parameters across the
// discipline/variant/feature matrix must complete with zero invariant
// violations. The generator is seeded, so a failure reproduces exactly;
// the failing seed and config are in the test output.
func TestRandomScenariosUnderAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized scenario sweep in -short mode")
	}
	rng := rand.New(rand.NewSource(20260805))
	variants := []tcp.Variant{tcp.Reno, tcp.Tahoe, tcp.NewReno, tcp.Sack}
	for i := 0; i < 12; i++ {
		aud := audit.New()
		// Drawn one field at a time, in the order the scenarios were
		// first recorded.
		cfg := LongLivedConfig{RunEnv: RunEnv{Audit: aud}}
		cfg.Seed = rng.Int63n(1 << 30)
		cfg.N = 2 + rng.Intn(12)
		cfg.Path = Path{BottleneckRate: units.BitRate(5+rng.Intn(20)) * units.Mbps, Warmup: units.Duration(1+rng.Intn(2)) * units.Second, Measure: units.Duration(2+rng.Intn(3)) * units.Second}
		cfg.BufferPackets = 4 + rng.Intn(60)
		cfg.Sender = Sender{Variant: variants[rng.Intn(len(variants))], Paced: rng.Intn(3) == 0, DelayedAck: rng.Intn(3) == 0}
		cfg.Queue = []Queue{DropTail, RED, REDECN, CoDel}[rng.Intn(4)]
		res := RunLongLived(cfg)
		if err := aud.Err(); err != nil {
			t.Fatalf("scenario %d (%+v): %v", i, cfg, err)
		}
		if res.Utilization < 0 || res.Utilization > 1.000001 {
			t.Fatalf("scenario %d: utilization %v out of range", i, res.Utilization)
		}
	}

	// Short-flow and mixed workloads exercise finite flows, slow-start
	// completion accounting and the trace generator under audit.
	aud := audit.New()
	short := RunProfile(shortFlowRun(42, 20*units.Mbps, 0.6, 10, 40,
		2*units.Second, 4*units.Second, RunEnv{Audit: aud}))
	afct, completed := short.AFCT, short.Completed
	if err := aud.Err(); err != nil {
		t.Fatalf("short flows: %v", err)
	}
	if completed > 0 && afct <= 0 {
		t.Fatalf("short flows: %d completed but AFCT %v", completed, afct)
	}

	aud = audit.New()
	RunMixed(MixedConfig{AFCTComparisonConfig{
		Scenario: Scenario{Seed: 13, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 2 * units.Second, Measure: 4 * units.Second}}, NLong: 6, ShortLoad: 0.2, Sizes: workload.GeometricSize(8),
		RunEnv: RunEnv{Audit: aud},
	}, 30})
	if err := aud.Err(); err != nil {
		t.Fatalf("mixed traffic: %v", err)
	}

	// Adversarial patterns are exactly the traffic that stresses the
	// conservation laws hardest — synchronized bursts overflowing tiny
	// buffers, lockstep loss epochs, multi-bottleneck chains — so each
	// randomized point runs one under audit too.
	for i := 0; i < 6; i++ {
		aud := audit.New()
		sc := AdversaryScenario{Pattern: adversary.Pattern(i % len(adversary.PatternNames())), RunEnv: RunEnv{Audit: aud}}
		sc.Seed = rng.Int63n(1 << 30)
		sc.N = 2 + rng.Intn(10)
		sc.Path = Path{
			BottleneckRate: units.BitRate(10+rng.Intn(20)) * units.Mbps,
			RTTMin:         units.Duration(40+rng.Intn(80)) * units.Millisecond,
			SegmentSize:    units.DefaultSegment,
		}
		factor := 0.05 + rng.Float64()
		sc.PulsePeakFactor = 2 + rng.Float64()*4
		sc.PulsePeriod = units.Duration(100+rng.Intn(200)) * units.Millisecond
		sc.PulseDuty = 0.1 + rng.Float64()*0.5
		sc.Hops = 2 + rng.Intn(2)
		sc.Warmup = units.Duration(1+rng.Intn(2)) * units.Second
		sc.Measure = units.Duration(2+rng.Intn(3)) * units.Second
		sc.BufferPackets = max(1, int(factor*float64(sc.BDP())))
		row := runAdversarialAt(sc, factor)
		if err := aud.Err(); err != nil {
			t.Fatalf("adversarial %v (%+v): %v", sc.Pattern, sc, err)
		}
		if row.Utilization < 0 || row.Utilization > 1.000001 {
			t.Fatalf("adversarial %v: utilization %v out of range", sc.Pattern, row.Utilization)
		}
	}
}

// TestAuditDoesNotPerturbResults pins the pure-observation contract at
// the experiment level: the same config with and without an auditor must
// produce identical results, field for field.
func TestAuditDoesNotPerturbResults(t *testing.T) {
	cfg := LongLivedConfig{
		Scenario: Scenario{Seed: 7, Path: Path{BottleneckRate: 15 * units.Mbps, Warmup: 2 * units.Second, Measure: 4 * units.Second}, Queue: RED}, N: 8, BufferPackets: 20,
	}
	base := RunLongLived(cfg)
	aud := audit.New()
	cfg.Audit = aud
	audited := RunLongLived(cfg)
	if err := aud.Err(); err != nil {
		t.Fatalf("audited run: %v", err)
	}
	cfg.Audit = nil
	if base != audited {
		t.Errorf("audit perturbed the run:\n  off: %+v\n  on:  %+v", base, audited)
	}
}
