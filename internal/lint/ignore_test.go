package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"bufsim/internal/lint"
)

func parseOne(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "directive.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, []*ast.File{f}
}

// TestMalformedDirective: a //lint:ignore without a reason (or without
// an analyzer list) is itself reported, under the pseudo-analyzer
// lintdirective — an unexplained suppression is worth nothing in review.
func TestMalformedDirective(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() int {
	//lint:ignore simdeterminism
	return 1
}
`)
	findings, err := lint.RunAnalyzers(fset, files, nil, nil, "p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "lintdirective" || !strings.Contains(f.Message, "malformed") {
		t.Errorf("unexpected finding: %+v", f)
	}
	if f.Position.Line != 4 {
		t.Errorf("finding at line %d, want 4", f.Position.Line)
	}
}

// TestWellFormedDirectiveSilent: a directive with a reason produces no
// lintdirective noise on its own.
func TestWellFormedDirectiveSilent(t *testing.T) {
	fset, files := parseOne(t, `package p

func f() int {
	//lint:ignore simdeterminism progress output only
	return 1
}
`)
	findings, err := lint.RunAnalyzers(fset, files, nil, nil, "p", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("got findings %v, want none", findings)
	}
}

// TestUnknownAnalyzerDirective: a directive naming an analyzer outside
// the suite — a typo, or one since deleted — is reported under
// lintdirective. Such an analyzer never runs, so the directive could
// never go stale and would otherwise be kept forever.
func TestUnknownAnalyzerDirective(t *testing.T) {
	for _, names := range []string{"simdeterminsm", "maporder,eventcapture"} {
		fset, files := parseOne(t, `package p

func f() int {
	//lint:ignore `+names+` a reason
	return 1
}
`)
		findings, err := lint.RunAnalyzers(fset, files, nil, nil, "p", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 1 {
			t.Fatalf("%s: got %d findings, want 1: %v", names, len(findings), findings)
		}
		f := findings[0]
		bad := names[strings.LastIndexByte(names, ',')+1:]
		if f.Analyzer != "lintdirective" || !strings.Contains(f.Message, `unknown analyzer "`+bad+`"`) || f.Position.Line != 4 {
			t.Errorf("%s: unexpected finding: %+v", names, f)
		}
	}
}

// TestMultiAnalyzerDirectiveStaleByName: a directive's names are judged
// stale one by one. In the fixture, maporder,simdeterminism sits above a
// map-order finding, so its maporder half is live; the simdeterminism
// half suppresses nothing and must be reported, not kept alive by its
// neighbour.
func TestMultiAnalyzerDirectiveStaleByName(t *testing.T) {
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := lint.NewLoader(mod, lint.Module{Dir: filepath.Join("testdata", "src")}).Load("staledirective")
	if err != nil {
		t.Fatal(err)
	}
	// The whole suite, unscoped: the fixture is not a bufsim package.
	var suite []*lint.Analyzer
	for _, a := range lint.Analyzers() {
		cp := *a
		cp.AppliesTo = nil
		suite = append(suite, &cp)
	}
	findings, err := lint.RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.PkgPath, suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: %v", len(findings), findings)
	}
	f := findings[0]
	if f.Analyzer != "lintstale" || !strings.Contains(f.Message, "no simdeterminism finding fires here") || f.Position.Line != 10 {
		t.Errorf("unexpected finding: %+v", f)
	}
}
