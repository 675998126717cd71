package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix is the suppression directive marker. The full grammar is
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// and the directive silences the named analyzers on its own line and on
// the first line after it, so it works both as a trailing comment and as
// a standalone comment above the offending statement.
const ignorePrefix = "//lint:ignore"

type ignoreDirective struct {
	// hits maps each analyzer the directive names to the diagnostics it
	// suppressed in this run: a name is judged stale on its own, so a
	// live name cannot keep a dead one alive.
	hits map[string]int
	line int       // line the directive appears on
	pos  token.Pos // directive position, for staleness findings
}

type ignoreIndex struct {
	fset *token.FileSet
	// byFile maps filename -> directives in that file.
	byFile map[string][]*ignoreDirective
	// malformed collects positions of directives missing a reason or an
	// analyzer list.
	malformed []token.Pos
}

func newIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{fset: fset, byFile: make(map[string][]*ignoreDirective)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignorefoo — not ours
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// Needs both an analyzer list and a reason: an
					// unexplained suppression is worth nothing in review.
					idx.malformed = append(idx.malformed, c.Pos())
					continue
				}
				pos := fset.Position(c.Pos())
				names := make(map[string]int)
				for _, n := range strings.Split(fields[0], ",") {
					if n != "" {
						names[n] = 0
					}
				}
				idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], &ignoreDirective{
					hits: names,
					line: pos.Line,
					pos:  c.Pos(),
				})
			}
		}
	}
	return idx
}

// suppressed reports whether a diagnostic from the named analyzer at pos
// is covered by a directive, and credits the directive with the hit for
// the staleness check.
func (idx *ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range idx.byFile[pos.Filename] {
		if _, named := d.hits[analyzer]; !named {
			continue
		}
		if pos.Line == d.line || pos.Line == d.line+1 {
			d.hits[analyzer]++
			return true
		}
	}
	return false
}

// directives returns the well-formed directives outside _test.go files,
// in position order. Test files are left out because their diagnostics
// are dropped before suppression, so their directives never record hits.
func (idx *ignoreIndex) directives() []*ignoreDirective {
	files := make([]string, 0, len(idx.byFile))
	for file := range idx.byFile {
		files = append(files, file)
	}
	sort.Strings(files)
	var out []*ignoreDirective
	for _, file := range files {
		if !strings.HasSuffix(file, "_test.go") {
			out = append(out, idx.byFile[file]...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// dead returns the analyzer names the directive lists that ran and
// suppressed nothing: dead weight that hides the next real finding at
// that line. A name outside the run set is left out, since a run
// without that analyzer can't judge it.
func (d *ignoreDirective) dead(ran map[string]bool) []string {
	var out []string
	for _, name := range d.sortedNames() {
		if ran[name] && d.hits[name] == 0 {
			out = append(out, name)
		}
	}
	return out
}

// sortedNames returns the directive's analyzer list in sorted order.
func (d *ignoreDirective) sortedNames() []string {
	out := make([]string, 0, len(d.hits))
	for n := range d.hits {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
