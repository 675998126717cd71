package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// wallClockFile is the one file per package allowed to read the machine
// clock. Whatever it reads must reach telemetry or stdout timing lines
// and nothing else; putting every read in a file of that name keeps the
// exceptions in one place a reviewer can check.
const wallClockFile = "wallclock.go"

// wallReadFuncs read the machine clock and return it as a value.
var wallReadFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// wallWaitFuncs block on or schedule against the machine clock. They
// have no telemetry-only use, so they are findings in every file,
// wallclock.go included.
var wallWaitFuncs = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// SimDeterminism forbids wall-clock dependence and the process-global
// math/rand source. Both make a run a function of when and where it
// executed instead of (config, seed), which silently invalidates the
// pinned digests and every cached result. The check is syntactic and
// runs on every package: the clock may be read only in a file named
// wallclock.go.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time and global math/rand; simulated time comes from sim.Scheduler.Now " +
		"and randomness from a seeded sim.RNG; time.Now/Since/Until are allowed only in a file named " +
		"wallclock.go, whose readings reach telemetry and timing lines alone",
	Run: runSimDeterminism,
}

func runSimDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		inWallClock := filepath.Base(pass.Fset.Position(f.Pos()).Filename) == wallClockFile
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch {
				case wallWaitFuncs[fn.Name()]:
					pass.Reportf(sel.Pos(), "wall-clock time.%s in %s; schedule a simulated event instead (sim.Scheduler)", fn.Name(), pass.PkgPath)
				case wallReadFuncs[fn.Name()] && !inWallClock:
					pass.Reportf(sel.Pos(), "wall-clock time.%s in %s outside %s; use the scheduler's simulated clock (sim.Scheduler.Now)", fn.Name(), pass.PkgPath, wallClockFile)
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the shared global
				// source; constructors (New, NewSource, ...) that feed a
				// seeded stream are the sanctioned path.
				if fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
					pass.Reportf(sel.Pos(), "global %s.%s draws from the process-wide source and breaks (config, seed) determinism; use a seeded sim.RNG", fn.Pkg().Path(), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
