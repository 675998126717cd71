package lint_test

import (
	"testing"

	"bufsim/internal/lint"
	"bufsim/internal/lint/linttest"
)

func TestSimDeterminism(t *testing.T) {
	linttest.Run(t, lint.SimDeterminism, "simdet", "profiledet", "advdet")
}
func TestMapOrder(t *testing.T) { linttest.Run(t, lint.MapOrder, "mapord") }
func TestUnitSafety(t *testing.T) {
	linttest.Run(t, lint.UnitSafety, "unitsafe", "profileunits", "probeunits")
}

// TestSuiteComplete pins the analyzer roster: the CI gate and the docs
// promise these three checks.
func TestSuiteComplete(t *testing.T) {
	want := map[string]bool{
		"simdeterminism": true,
		"maporder":       true,
		"unitsafety":     true,
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for _, a := range got {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q in suite", a.Name)
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// TestAppliesToScopes pins which corners of the tree each analyzer
// guards, so a scope regression (e.g. simdeterminism skipping a package
// again) fails loudly.
func TestAppliesToScopes(t *testing.T) {
	// simdeterminism runs everywhere: the clock is confined by file name
	// (wallclock.go), not by a list of packages.
	if lint.SimDeterminism.AppliesTo != nil {
		t.Error("simdeterminism has an AppliesTo filter; it must run on every package")
	}
	cases := []struct {
		analyzer *lint.Analyzer
		pkg      string
		want     bool
	}{
		{lint.UnitSafety, "bufsim/internal/units", false}, // the units package defines the conversions
		{lint.UnitSafety, "bufsim/internal/tcp", true},
		{lint.UnitSafety, "bufsim/cmd/bufsim", true},
		{lint.UnitSafety, "bufsim/internal/workload/profile", true},
		{lint.UnitSafety, "bufsim/internal/adversary", true},
		{lint.UnitSafety, "bufsim/internal/probe", true},
		{lint.MapOrder, "bufsim/internal/experiment", true},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.pkg); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}
