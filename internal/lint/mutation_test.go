package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bufsim/internal/lint"
)

// seededMutation is a wall-clock read that escapes into a value the
// simulation could use: the bug simdeterminism exists to catch.
const seededMutation = `package topology

import "time"

func seededStartJitter() int64 { return time.Now().UnixNano() % 1000 }
`

// TestSeededMutationDetected proves simdeterminism against the real tree,
// not just against fixtures: internal/topology as it is must be clean,
// and the same sources plus one seeded wall-clock read must be reported
// at the seeded file. The mutated copy lives in a temporary directory
// that the loader resolves ahead of the module, so the tree itself never
// carries the bug.
func TestSeededMutationDetected(t *testing.T) {
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	const pkg = "bufsim/internal/topology"
	analyzers := []*lint.Analyzer{lint.SimDeterminism}

	load := func(mods ...lint.Module) []lint.Finding {
		t.Helper()
		p, err := lint.NewLoader(append(mods, mod)...).Load(pkg)
		if err != nil {
			t.Fatal(err)
		}
		findings, err := lint.RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, p.PkgPath, analyzers)
		if err != nil {
			t.Fatal(err)
		}
		return findings
	}

	if clean := load(); len(clean) != 0 {
		t.Fatalf("topology without the mutation should be clean, got %v", clean)
	}

	src := filepath.Join(mod.Dir, "internal", "topology")
	dst := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
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
	if err := os.WriteFile(filepath.Join(dst, "seeded.go"), []byte(seededMutation), 0o644); err != nil {
		t.Fatal(err)
	}

	seeded := load(lint.Module{Path: pkg, Dir: dst})
	found := false
	for _, f := range seeded {
		if f.Analyzer == "simdeterminism" && filepath.Base(f.Position.Filename) == "seeded.go" {
			found = true
		}
	}
	if !found {
		t.Fatalf("simdeterminism did not report the seeded wall-clock read; findings: %v", seeded)
	}
}
