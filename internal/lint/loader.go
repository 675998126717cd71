package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Module is one root the loader can resolve import paths under. A Module
// with an empty Path is a GOPATH-style fixture root: the import path is
// joined directly onto Dir (linttest uses this for testdata/src).
type Module struct {
	Path string // import path prefix, e.g. "bufsim"; "" for fixture roots
	Dir  string // directory holding the module root
}

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// Loader parses and type-checks packages without the go command, so the
// analyzers can run inside tests and in the standalone buflint mode.
// Imports under a registered Module resolve from source on disk;
// everything else (the standard library) resolves through go/importer's
// source importer against GOROOT. The loader memoizes by import path.
type Loader struct {
	fset    *token.FileSet
	mods    []Module
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader resolving imports under the given modules.
func NewLoader(mods ...Module) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		mods:    mods,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Fset returns the file set all loaded packages share.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// dirFor resolves an import path to a directory under one of the
// loader's modules.
func (l *Loader) dirFor(path string) (string, bool) {
	for _, m := range l.mods {
		switch {
		case m.Path == "":
			dir := filepath.Join(m.Dir, filepath.FromSlash(path))
			if st, err := os.Stat(dir); err == nil && st.IsDir() {
				return dir, true
			}
		case path == m.Path:
			return m.Dir, true
		case strings.HasPrefix(path, m.Path+"/"):
			return filepath.Join(m.Dir, filepath.FromSlash(strings.TrimPrefix(path, m.Path+"/"))), true
		}
	}
	return "", false
}

// Load parses and type-checks the package at the given import path.
// Type errors are fatal: an analyzer's answers are only meaningful on a
// well-typed package.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: import path %q is outside every registered module", path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %v", path, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: importerFunc(l.importPkg),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", path, err)
	}
	p := &Package{PkgPath: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return Module{}, err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					path := strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
					if path != "" {
						return Module{Path: path, Dir: d}, nil
					}
				}
			}
			return Module{}, fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return Module{}, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// ExpandPatterns resolves go-style package patterns ("./...",
// "./internal/...", "./cmd/bufsim") against a module into the import
// paths of every directory that holds buildable Go files. testdata and
// hidden directories are skipped, as the go tool does, and so is a
// nested module (a directory with its own go.mod, such as benchmark/):
// its packages are not the module's.
func ExpandPatterns(mod Module, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		rel = filepath.ToSlash(rel)
		var imp string
		switch {
		case rel == "." || rel == "":
			imp = mod.Path
		default:
			imp = mod.Path + "/" + rel
		}
		if !seen[imp] {
			seen[imp] = true
			out = append(out, imp)
		}
	}
	hasGo := func(dir string) bool {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return false
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				return true
			}
		}
		return false
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "..." {
			recursive, pat = true, "."
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		root := filepath.Join(mod.Dir, filepath.FromSlash(pat))
		if !recursive {
			if hasGo(root) {
				rel, err := filepath.Rel(mod.Dir, root)
				if err != nil {
					return nil, err
				}
				add(rel)
			}
			continue
		}
		err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != mod.Dir {
				return filepath.SkipDir
			}
			if hasGo(p) {
				rel, err := filepath.Rel(mod.Dir, p)
				if err != nil {
					return err
				}
				add(rel)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// Run loads every package matched by patterns under the module and runs
// the analyzers, returning all surviving findings sorted by position.
func Run(mod Module, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	paths, err := ExpandPatterns(mod, patterns)
	if err != nil {
		return nil, err
	}
	loader := NewLoader(mod)
	var findings []Finding
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		fs, err := RunAnalyzers(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.PkgPath, analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	return findings, nil
}
