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
	analyzers map[string]bool
	line      int       // line the directive appears on
	pos       token.Pos // directive position, for staleness findings
	hits      int       // diagnostics this directive suppressed in this run
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
				names := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					if n != "" {
						names[n] = true
					}
				}
				idx.byFile[pos.Filename] = append(idx.byFile[pos.Filename], &ignoreDirective{
					analyzers: names,
					line:      pos.Line,
					pos:       c.Pos(),
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
		if !d.analyzers[analyzer] {
			continue
		}
		if pos.Line == d.line || pos.Line == d.line+1 {
			d.hits++
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

// stale returns the directives that suppressed nothing even though every
// analyzer they name ran — dead weight that hides the next real finding
// at that line. Directives naming an analyzer outside the run set are
// skipped: a single-analyzer run can't judge them.
func (idx *ignoreIndex) stale(ran map[string]bool) []*ignoreDirective {
	var out []*ignoreDirective
	for _, d := range idx.directives() {
		if d.hits > 0 {
			continue
		}
		covered := true
		for name := range d.analyzers {
			if !ran[name] {
				covered = false
				break
			}
		}
		if covered {
			out = append(out, d)
		}
	}
	return out
}

// sortedNames returns the directive's analyzer list in sorted order.
func (d *ignoreDirective) sortedNames() []string {
	out := make([]string, 0, len(d.analyzers))
	for n := range d.analyzers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
