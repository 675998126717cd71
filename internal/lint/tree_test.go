package lint_test

import (
	"testing"

	"bufsim/internal/lint"
)

// TestTreeIsClean runs every analyzer over the real module and demands
// zero findings: the contracts buflint enforces are not aspirational,
// the tree actually satisfies them (modulo reasoned //lint:ignore
// directives). This is the same check `make lint` runs through
// cmd/buflint, kept here too so `go test ./...` alone catches a
// violation.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(mod, []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
