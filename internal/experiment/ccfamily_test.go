package experiment

import (
	"strings"
	"testing"

	"bufsim/internal/tcp"
	"bufsim/internal/units"
)

func scaledCCFamilyConfig() CCFamilyConfig {
	return CCFamilyConfig{
		Scenario: Scenario{Seed: 7, Path: Path{BottleneckRate: 20 * units.Mbps, Warmup: 5 * units.Second, Measure: 10 * units.Second}},
		Ns:       []int{20, 80},
		Variants: []tcp.Variant{tcp.Reno, tcp.Cubic, tcp.BBR},
	}
}

func TestRunCCFamilyAcrossFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("many simulation runs (bisection per grid point)")
	}
	cfg := scaledCCFamilyConfig()
	table := RunCCFamily(cfg)
	if len(table) != len(cfg.Variants)*len(cfg.Ns) {
		t.Fatalf("got %d points, want %d", len(table), len(cfg.Variants)*len(cfg.Ns))
	}
	byKey := map[tcp.Variant]map[int]CCFamilyPoint{}
	for i, p := range table {
		wantV := cfg.Variants[i/len(cfg.Ns)]
		wantN := cfg.Ns[i%len(cfg.Ns)]
		if p.Variant != wantV || p.N != wantN {
			t.Fatalf("point %d is (%v, %d), want (%v, %d)", i, p.Variant, p.N, wantV, wantN)
		}
		if p.SqrtRule <= 0 || p.BDPPackets <= 0 {
			t.Errorf("(%v, %d): non-positive rule/BDP: %+v", p.Variant, p.N, p)
		}
		if p.MinBuffer < 1 {
			t.Errorf("(%v, %d): MinBuffer = %d", p.Variant, p.N, p.MinBuffer)
		}
		if p.Ceiling <= 0.5 || p.Ceiling > 1.0001 {
			t.Errorf("(%v, %d): implausible ceiling %v", p.Variant, p.N, p.Ceiling)
		}
		if p.Target >= p.Ceiling || p.Target <= 0 {
			t.Errorf("(%v, %d): target %v not below ceiling %v", p.Variant, p.N, p.Target, p.Ceiling)
		}
		if p.UtilAtRule <= 0 || p.UtilAtRule > 1.0001 {
			t.Errorf("(%v, %d): UtilAtRule = %v", p.Variant, p.N, p.UtilAtRule)
		}
		if byKey[p.Variant] == nil {
			byKey[p.Variant] = map[int]CCFamilyPoint{}
		}
		byKey[p.Variant][p.N] = p
	}

	// The loss-based families must track the sqrt rule: more flows, less
	// buffer. BBR's requirement is rate-driven and must not explode with
	// the rule's denominator — the headline of the updated theory is
	// that the rule's n-dependence is a property of loss-based AIMD.
	for _, v := range []tcp.Variant{tcp.Reno, tcp.Cubic} {
		lo, hi := byKey[v][20], byKey[v][80]
		if hi.MinBuffer > lo.MinBuffer {
			t.Errorf("%v: min buffer grew with n (%d flows: %d, %d flows: %d)",
				v, lo.N, lo.MinBuffer, hi.N, hi.MinBuffer)
		}
	}
	// At the sqrt-rule buffer the loss-based families should be near
	// their ceiling; that is the 2004 result this repo reproduces.
	for _, v := range []tcp.Variant{tcp.Reno, tcp.Cubic} {
		for _, n := range []int{20, 80} {
			p := byKey[v][n]
			if p.UtilAtRule < 0.85*p.Ceiling {
				t.Errorf("%v n=%d: util at sqrt rule %v far below ceiling %v",
					v, n, p.UtilAtRule, p.Ceiling)
			}
		}
	}

	out := table.Table()
	for _, want := range []string{"Variant", "SqrtRule", "MinBuffer", "bbr", "cubic"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table() missing %q:\n%s", want, out)
		}
	}
}

func TestRunCCFamilyDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation runs")
	}
	cfg := scaledCCFamilyConfig()
	cfg.Ns = []int{20}
	cfg.Variants = []tcp.Variant{tcp.BBR}
	a := RunCCFamily(cfg)
	b := RunCCFamily(cfg)
	if len(a) != 1 || len(b) != 1 || a[0] != b[0] {
		t.Errorf("re-run diverged:\n%+v\n%+v", a, b)
	}
}

func TestCCFamilyDefaults(t *testing.T) {
	cfg := CCFamilyConfig{}.withDefaults()
	if len(cfg.Variants) != len(tcp.Variants()) {
		t.Errorf("default variants = %v, want all registered", cfg.Variants)
	}
	if cfg.Target <= 0 || cfg.Target >= 1 {
		t.Errorf("default target = %v", cfg.Target)
	}
	if len(cfg.Ns) == 0 || cfg.BottleneckRate == 0 {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
}
