// Package linttest runs one lint.Analyzer over fixture packages under
// testdata/src and checks its diagnostics against `// want` annotations,
// in the style of golang.org/x/tools/go/analysis/analysistest:
//
//	x := m[k] // want `regexp matching the diagnostic`
//
// A want annotation takes one or more Go string literals (quoted or
// backquoted), each a regexp that must match exactly one diagnostic
// reported on that line. Diagnostics without a matching want, and wants
// without a matching diagnostic, fail the test.
//
// Fixture packages may import real module packages (bufsim/...): the
// harness registers both the enclosing module and the GOPATH-style
// testdata/src root with the loader. The analyzer's AppliesTo filter is
// deliberately bypassed so fixtures can live in synthetic packages.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bufsim/internal/lint"
)

// Run loads each fixture package and checks a's diagnostics against the
// package's want annotations.
func Run(t *testing.T, a *lint.Analyzer, pkgs ...string) {
	t.Helper()
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader(mod, lint.Module{Path: "", Dir: filepath.Join("testdata", "src")})
	for _, pkgPath := range pkgs {
		pkg, err := loader.Load(pkgPath)
		if err != nil {
			t.Fatalf("load %s: %v", pkgPath, err)
		}
		findings, err := lint.RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.PkgPath, []*lint.Analyzer{stripAppliesTo(a)})
		if err != nil {
			t.Fatalf("run %s on %s: %v", a.Name, pkgPath, err)
		}
		checkWants(t, pkg, findings)
	}
}

func stripAppliesTo(a *lint.Analyzer) *lint.Analyzer {
	cp := *a
	cp.AppliesTo = nil
	return &cp
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

func checkWants(t *testing.T, pkg *lint.Package, findings []lint.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				wants = append(wants, parseWants(t, pkg.Fset, c)...)
			}
		}
	}
	for _, fd := range findings {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != fd.Position.Filename || w.line != fd.Position.Line {
				continue
			}
			if w.re.MatchString(fd.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", fd.Position, fd.Message, fd.Analyzer)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.raw)
		}
	}
}

// parseWants extracts the want annotations from one comment. The
// comment's END position anchors the line, so a trailing comment binds
// to its own source line.
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*want {
	t.Helper()
	text := c.Text
	idx := strings.Index(text, "// want ")
	if idx < 0 {
		if idx = strings.Index(text, "/* want "); idx < 0 {
			return nil
		}
	}
	rest := strings.TrimSpace(text[idx+len("// want "):])
	rest = strings.TrimSuffix(rest, "*/")
	pos := fset.Position(c.Pos())
	var out []*want
	for rest != "" {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		var lit, remainder string
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated backquoted want", pos)
			}
			lit, remainder = rest[1:1+end], rest[end+2:]
		case '"':
			var err error
			// Find the closing quote by re-scanning with strconv.
			end := matchQuoted(rest)
			if end < 0 {
				t.Fatalf("%s: unterminated quoted want", pos)
			}
			lit, err = strconv.Unquote(rest[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want literal: %v", pos, err)
			}
			remainder = rest[end+1:]
		default:
			t.Fatalf("%s: want arguments must be quoted or backquoted regexps, got %q", pos, rest)
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
		}
		out = append(out, &want{file: pos.Filename, line: pos.Line, re: re, raw: lit})
		rest = remainder
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no patterns", pos)
	}
	return out
}

// matchQuoted returns the index of the closing double quote of a Go
// string literal starting at s[0]=='"', honoring escapes, or -1.
func matchQuoted(s string) int {
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}
