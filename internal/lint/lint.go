// Package lint is the simulator's first-party static-analysis suite.
//
// The reproduction's headline numbers are trustworthy only because a run
// is a pure function of (config, seed): the pinned digests, the
// content-addressed run cache and its resume-by-replay rest on that
// assumption. The runtime layers (digest tests, -cache-verify, the audit
// hooks) catch drift after it happens; this package catches the usual
// sources of drift at compile time:
//
//   - simdeterminism: no global math/rand and no waiting on the wall
//     clock anywhere, and no wall-clock read outside a file named
//     wallclock.go, whose readings may reach telemetry and nothing else.
//   - maporder: no order-dependent work inside `range` over a map.
//   - unitsafety: no bare numeric literals or cross-unit conversions
//     where units.* quantities are expected.
//
// The analyzers mirror the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but are built purely on the standard
// library so the module stays dependency-free. All three are syntactic
// checks over the type-checked AST. Run drives the suite over a module
// from source; cmd/buflint and TestTreeIsClean both call it.
//
// Intentional exceptions are suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on, or on the line before, the offending line. A directive without a
// reason, or naming an analyzer outside the suite, is itself a
// diagnostic (lintdirective), and so is a directive naming an analyzer
// whose finding no longer fires there (lintstale), each name judged on
// its own: suppressions may only cover live findings, so the count can
// only shrink.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the x/tools analysis.Analyzer
// surface that the driver and linttest need, so the suite can migrate to
// the upstream framework without touching the checks themselves.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. A nil AppliesTo runs everywhere. The
	// test harness bypasses this so fixtures can live in synthetic
	// packages.
	AppliesTo func(pkgPath string) bool

	// Run performs the analysis and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// PkgPath is the import path being analyzed.
	PkgPath string

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned by token.Pos within the pass's
// file set.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Finding is a rendered diagnostic, positioned absolutely.
type Finding struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// Analyzers returns the full buflint suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminism,
		MapOrder,
		UnitSafety,
	}
}

// RunAnalyzers runs the given analyzers over one type-checked package and
// returns the surviving findings: suppression directives are honored,
// diagnostics in _test.go files are dropped (the determinism contract
// binds the simulator, not its tests), malformed directives and
// directives naming an analyzer outside Analyzers() are reported under
// the pseudo-analyzer "lintdirective", and a directive that names an
// analyzer which ran and suppressed nothing there is reported under
// "lintstale", each such name judged on its own. Findings are sorted by
// position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, pkgPath string, analyzers []*Analyzer) ([]Finding, error) {
	var diags []Diagnostic
	ran := make(map[string]bool)
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.AppliesTo != nil && !a.AppliesTo(pkgPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			PkgPath:  pkgPath,
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	idx := newIgnoreIndex(fset, files)
	var out []Finding
	emit := func(pos token.Position, analyzer, message string) {
		out = append(out, Finding{Position: pos, Analyzer: analyzer, Message: message})
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		if idx.suppressed(d.Analyzer, pos) {
			continue
		}
		emit(pos, d.Analyzer, d.Message)
	}
	for _, bad := range idx.malformed {
		pos := fset.Position(bad)
		if strings.HasSuffix(pos.Filename, "_test.go") {
			continue
		}
		emit(pos, "lintdirective", "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>")
	}
	known := make(map[string]bool)
	var suite []string
	for _, a := range Analyzers() {
		known[a.Name] = true
		suite = append(suite, a.Name)
	}
	for _, d := range idx.directives() {
		pos := fset.Position(d.pos)
		names := d.sortedNames()
		for _, n := range names {
			if !known[n] {
				// It never runs, so the directive could never go stale.
				emit(pos, "lintdirective", fmt.Sprintf("//lint:ignore names unknown analyzer %q (the suite is %s)", n, strings.Join(suite, ", ")))
			}
		}
		if dead := d.dead(ran); len(dead) > 0 {
			emit(pos, "lintstale", fmt.Sprintf("stale //lint:ignore %s directive: no %s finding fires here anymore; delete that name", strings.Join(names, ","), strings.Join(dead, ",")))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Position, out[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
