package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufsim/internal/lint"
)

// seededMutations are one bug per analyzer, each the kind its analyzer
// exists to catch, written as an extra file of internal/topology.
var seededMutations = []struct {
	analyzer string
	src      string
}{
	{"simdeterminism", `package topology

import "time"

// A wall-clock read outside wallclock.go that feeds the simulation.
func seededStartJitter() int64 { return time.Now().UnixNano() % 1000 }
`},
	{"maporder", `package topology

// Link order taken from map iteration order.
func seededOrder(byName map[string]int) []int {
	var order []int
	for _, id := range byName {
		order = append(order, id)
	}
	return order
}
`},
	{"unitsafety", `package topology

import "bufsim/internal/units"

// A bare literal in a units.Duration slot: 5 what?
func seededDelay() units.Duration { return 5 }
`},
}

// TestSeededMutationDetected proves each analyzer against the real tree,
// not just against fixtures: internal/topology as it is must be clean
// under the whole suite, and the same sources plus one seeded bug must
// be reported at the seeded file by the bug's own analyzer and by no
// other. The mutated copy lives in a temporary directory that the loader
// resolves ahead of the module, so the tree itself never carries the
// bug.
func TestSeededMutationDetected(t *testing.T) {
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "bufsim/internal/topology"

	load := func(mods ...lint.Module) []lint.Finding {
		t.Helper()
		p, err := lint.NewLoader(append(mods, mod)...).Load(pkg)
		if err != nil {
			t.Fatal(err)
		}
		findings, err := lint.RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, p.PkgPath, lint.Analyzers())
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}

	if clean := load(); len(clean) != 0 {
		t.Fatalf("topology without a mutation should be clean, got %v", clean)
	}

	src := filepath.Join(mod.Dir, "internal", "topology")
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range seededMutations {
		t.Run(m.analyzer, func(t *testing.T) {
			dst := t.TempDir()
			for _, name := range names {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dst, filepath.Base(name)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dst, "seeded.go"), []byte(m.src), 0o644); err != nil {
				t.Fatal(err)
			}

			seeded := load(lint.Module{Path: pkg, Dir: dst})
			if len(seeded) == 0 {
				t.Fatalf("%s did not report the seeded bug", m.analyzer)
			}
			for _, f := range seeded {
				if f.Analyzer != m.analyzer || filepath.Base(f.Position.Filename) != "seeded.go" {
					t.Errorf("want only %s findings in seeded.go, got %s", m.analyzer, f)
				}
			}
		})
	}
}
