package runcache

import "testing"

// abOrder and baOrder declare the same fields in opposite source order;
// the canonical digest must not see the difference.
type abOrder struct {
	Alpha int
	Beta  string
	Gamma float64
}

type baOrder struct {
	Gamma float64
	Beta  string
	Alpha int
}

func TestKeyFieldOrderIndependence(t *testing.T) {
	a := Key("s", "k", abOrder{Alpha: 3, Beta: "x", Gamma: 1.5})
	b := Key("s", "k", baOrder{Alpha: 3, Beta: "x", Gamma: 1.5})
	if a != b {
		t.Fatalf("field order changed the digest: %s vs %s", a, b)
	}
}

func TestKeyZeroValueVsAbsent(t *testing.T) {
	type opt struct {
		N     int
		Tags  []string
		Extra map[string]int
		Ptr   *int
	}
	// nil slice/map/pointer must digest like their empty/zero forms,
	// so "option not set" and "option explicitly zero" share an entry.
	zero := Key("s", "k", opt{})
	explicit := Key("s", "k", opt{Tags: []string{}, Extra: map[string]int{}})
	if zero != explicit {
		t.Fatalf("nil vs empty collections changed the digest")
	}
	v := 0
	if Key("s", "k", opt{Ptr: &v}) != zero {
		t.Fatalf("pointer to zero should digest like the zero value")
	}
	v = 7
	if Key("s", "k", opt{Ptr: &v}) == zero {
		t.Fatalf("pointer to non-zero must change the digest")
	}
}

func TestKeySemanticFieldsChangeDigest(t *testing.T) {
	type cfg struct {
		Seed  int64
		Rate  float64
		Label string
		On    bool
		List  []int
	}
	base := cfg{Seed: 1, Rate: 2.5, Label: "a", On: false, List: []int{1, 2}}
	want := Key("s", "k", base)
	perturbed := []cfg{
		{Seed: 2, Rate: 2.5, Label: "a", List: []int{1, 2}},
		{Seed: 1, Rate: 2.6, Label: "a", List: []int{1, 2}},
		{Seed: 1, Rate: 2.5, Label: "b", List: []int{1, 2}},
		{Seed: 1, Rate: 2.5, Label: "a", On: true, List: []int{1, 2}},
		{Seed: 1, Rate: 2.5, Label: "a", List: []int{1, 3}},
		{Seed: 1, Rate: 2.5, Label: "a", List: []int{1, 2, 3}},
	}
	for i, p := range perturbed {
		if Key("s", "k", p) == want {
			t.Errorf("perturbation %d did not change the digest: %+v", i, p)
		}
	}
}

func TestKeySaltAndKindChangeDigest(t *testing.T) {
	cfg := abOrder{Alpha: 1}
	base := Key("s1", "k1", cfg)
	if Key("s2", "k1", cfg) == base {
		t.Fatalf("salt did not change the digest")
	}
	if Key("s1", "k2", cfg) == base {
		t.Fatalf("kind did not change the digest")
	}
}

type sizer interface{ Mean() float64 }

type fixedSizer float64
type geomSizer float64

func (f fixedSizer) Mean() float64 { return float64(f) }
func (g geomSizer) Mean() float64  { return float64(g) }

func TestKeyInterfaceConcreteType(t *testing.T) {
	type cfg struct{ Dist sizer }
	a := Key("s", "k", cfg{Dist: fixedSizer(4)})
	b := Key("s", "k", cfg{Dist: geomSizer(4)})
	if a == b {
		t.Fatalf("different concrete types behind an interface digested identically")
	}
	if Key("s", "k", cfg{Dist: fixedSizer(4)}) != a {
		t.Fatalf("digest not deterministic for interface values")
	}
	if Key("s", "k", cfg{}) == a {
		t.Fatalf("nil interface digested like a concrete value")
	}
}

// Observers stands in for experiment.RunEnv: a struct type that declares
// the DigestIgnore marker.
type Observers struct {
	Parallelism int
	Sink        *int
}

func (Observers) DigestIgnore() {}

func TestKeySkipsDigestIgnoredTypes(t *testing.T) {
	// scenario embeds the marked type, so the marker method is promoted
	// into its own method set — it must still be digested field by field.
	type scenario struct {
		Seed int64
		Observers
	}
	// point nests a scenario under a named field and carries a marked
	// value under a name of its own: skipping goes by type, at any depth.
	type point struct {
		Base   scenario
		Buffer int
		Env    Observers
	}
	sink := 7
	quiet := point{Base: scenario{Seed: 1}, Buffer: 10}
	watched := point{
		Base:   scenario{Seed: 1, Observers: Observers{Parallelism: 16, Sink: &sink}},
		Buffer: 10,
		Env:    Observers{Parallelism: 4},
	}
	a := Key("s", "k", quiet)
	if Key("s", "k", watched) != a {
		t.Fatalf("a field of a DigestIgnore type changed the digest")
	}
	if Key("s", "k", point{Base: scenario{Seed: 2}, Buffer: 10}) == a {
		t.Fatalf("a struct that only embeds a DigestIgnore type was skipped whole: its semantic field no longer changes the digest")
	}
	if Key("s", "k", point{Base: scenario{Seed: 1}, Buffer: 11}) == a {
		t.Fatalf("semantic field no longer changes the digest")
	}
	// The marked type is invisible, not merely constant: the key is the
	// one the same structs have without it.
	type bareScenario struct{ Seed int64 }
	type barePoint struct {
		Base   bareScenario
		Buffer int
	}
	if Key("s", "k", barePoint{Base: bareScenario{Seed: 1}, Buffer: 10}) != a {
		t.Fatalf("a DigestIgnore field left a trace in the encoding")
	}
}

func TestKeyMapOrderIndependence(t *testing.T) {
	type cfg struct{ M map[string]int }
	a := Key("s", "k", cfg{M: map[string]int{"x": 1, "y": 2, "z": 3}})
	for i := 0; i < 10; i++ {
		if Key("s", "k", cfg{M: map[string]int{"z": 3, "y": 2, "x": 1}}) != a {
			t.Fatalf("map iteration order leaked into the digest")
		}
	}
}

func TestKeyUnsupportedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic digesting a func-typed slice element")
		}
	}()
	Key("s", "k", []func(){func() {}})
}
