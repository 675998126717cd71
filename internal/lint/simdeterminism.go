package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deterministicCorePkgs are the packages whose execution must be a pure
// function of (config, seed): everything on the simulate-and-measure
// path. Observer-only packages (metrics, plot, runcache, audit sinks)
// and the CLIs may read the wall clock; these may not, except where the
// dataflow engine proves the reading never feeds a result (telemetry
// gauges, stderr progress output) or under a //lint:ignore with a
// reason.
var deterministicCorePkgs = map[string]bool{
	"bufsim":                           true,
	"bufsim/internal/adversary":        true,
	"bufsim/internal/probe":            true,
	"bufsim/internal/sim":              true,
	"bufsim/internal/tcp":              true,
	"bufsim/internal/link":             true,
	"bufsim/internal/queue":            true,
	"bufsim/internal/node":             true,
	"bufsim/internal/packet":           true,
	"bufsim/internal/topology":         true,
	"bufsim/internal/workload":         true,
	"bufsim/internal/workload/profile": true,
	"bufsim/internal/trace":            true,
	"bufsim/internal/model":            true,
	"bufsim/internal/stats":            true,
	"bufsim/internal/units":            true,
	"bufsim/internal/experiment":       true,
}

// wallWaitFuncs block on or schedule against the machine clock. They
// have no telemetry-only use, so they are findings wherever they appear
// in the core, flow or no flow.
var wallWaitFuncs = map[string]bool{
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// wallReadFuncs read the machine clock and return it as a value. A read
// is a finding only when the dataflow engine shows the value (or
// anything derived from it) escaping to a non-confined sink: returned,
// stored outside the function, or passed to a callee that is not a
// telemetry sink. Reads that provably feed only metrics gauges, stderr
// progress output, or confined in-package helpers are exempt — that is
// the entire class the old syntactic analyzer needed //lint:ignore
// directives for.
var wallReadFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// SimDeterminism forbids wall-clock dependence and the process-global
// math/rand source inside the deterministic core. Both make a run a
// function of when and where it executed instead of (config, seed),
// which silently invalidates the pinned digests and every cached result.
var SimDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time and global math/rand in the deterministic simulator core; " +
		"simulated time comes from sim.Scheduler.Now and randomness from a seeded sim.RNG; " +
		"wall reads whose values flow only to telemetry sinks (metrics, stderr) are exempt",
	AppliesTo: func(pkgPath string) bool { return deterministicCorePkgs[pkgPath] },
	Run:       runSimDeterminism,
}

func runSimDeterminism(pass *Pass) error {
	wa := newWallAnalysis(pass)
	wa.solveSummaries()
	wa.report()

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := selectorFunc(pass, sel)
			if fn == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallWaitFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(), "wall-clock time.%s in deterministic package %s; use the scheduler's simulated clock (sim.Scheduler.Now)", fn.Name(), pass.PkgPath)
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

func selectorFunc(pass *Pass, sel *ast.SelectorExpr) *types.Func {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	return fn
}

// wallSource tags clock-read calls (time.Now/Since/Until).
func wallSource(pass *Pass, e ast.Expr) []tag {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn := selectorFunc(pass, sel)
	if fn == nil || fn.Pkg().Path() != "time" || !wallReadFuncs[fn.Name()] {
		return nil
	}
	return []tag{{kind: "wall", key: posKey(pass, call.Pos())}}
}

// wallAnalysis runs the telemetry-confinement analysis for one package:
// which wall reads escape, and which function parameters are confined
// sinks (so a caller may hand them wall time without a finding).
type wallAnalysis struct {
	pass  *Pass
	decls []*ast.FuncDecl
	flows map[*ast.FuncDecl]*funcFlow
	// reads maps each function to its wall-read calls: tag -> call site.
	reads map[*ast.FuncDecl]map[tag]*ast.CallExpr
	// paramTag maps each candidate parameter to its summary tag.
	paramTags map[*ast.FuncDecl]map[*types.Var]tag
	// confined[fn][i] reports parameter i of fn accepts wall time
	// without leaking it. Greatest fixpoint: starts all-true, flips to
	// false as leaks are found.
	confined map[*types.Func][]bool
	funcOf   map[*ast.FuncDecl]*types.Func
}

func newWallAnalysis(pass *Pass) *wallAnalysis {
	wa := &wallAnalysis{
		pass:      pass,
		decls:     funcDecls(pass.Files),
		flows:     make(map[*ast.FuncDecl]*funcFlow),
		reads:     make(map[*ast.FuncDecl]map[tag]*ast.CallExpr),
		paramTags: make(map[*ast.FuncDecl]map[*types.Var]tag),
		confined:  make(map[*types.Func][]bool),
		funcOf:    make(map[*ast.FuncDecl]*types.Func),
	}
	for _, fd := range wa.decls {
		fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		wa.funcOf[fd] = fn
		ff := newFuncFlow(pass, wallSource, fd)

		reads := make(map[tag]*ast.CallExpr)
		ast.Inspect(fd, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, t := range wallSource(pass, call) {
					reads[t] = call
				}
			}
			return true
		})
		wa.reads[fd] = reads

		sig := fn.Type().(*types.Signature)
		ptags := make(map[*types.Var]tag)
		conf := make([]bool, sig.Params().Len())
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			conf[i] = true
			if !wallCarrierType(p.Type()) {
				continue
			}
			t := tag{kind: "wallp", key: posKey(pass, p.Pos())}
			ptags[p] = t
			ff.seed(p, t, p.Pos())
		}
		wa.confined[fn] = conf
		wa.paramTags[fd] = ptags
		ff.solve()
		wa.flows[fd] = ff
	}
	return wa
}

// wallCarrierType reports whether a parameter of type t can carry wall
// time: time.Time, time.Duration, or slices/pointers of them.
func wallCarrierType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return wallCarrierType(u.Elem())
	case *types.Slice:
		return wallCarrierType(u.Elem())
	}
	return typeIsNamed(t, "time", "Time") || typeIsNamed(t, "time", "Duration")
}

// solveSummaries iterates the confinement fixpoint: a parameter stops
// being confined the moment any scan shows its tag escaping, and
// flipping one summary can make a caller's argument leak, so iterate to
// a fixed point. Monotone (confined only flips to false), so it
// terminates.
func (wa *wallAnalysis) solveSummaries() {
	for changed := true; changed; {
		changed = false
		for _, fd := range wa.decls {
			violated := wa.scan(fd)
			fn := wa.funcOf[fd]
			sig := fn.Type().(*types.Signature)
			for i := 0; i < sig.Params().Len(); i++ {
				t, ok := wa.paramTags[fd][sig.Params().At(i)]
				if !ok {
					continue
				}
				if _, bad := violated[t]; bad && wa.confined[fn][i] {
					wa.confined[fn][i] = false
					changed = true
				}
			}
		}
	}
}

// report emits a finding for every wall read whose tag escapes under
// the stable summaries, plus any read at package scope (no function to
// confine it).
func (wa *wallAnalysis) report() {
	inDecl := func(pos token.Pos) bool {
		for _, fd := range wa.decls {
			if pos >= fd.Pos() && pos < fd.End() {
				return true
			}
		}
		return false
	}
	for _, fd := range wa.decls {
		violated := wa.scan(fd)
		for t, call := range wa.reads[fd] {
			if _, bad := violated[t]; bad {
				wa.reportRead(call)
			}
		}
	}
	// Package-scope reads (var initializers) have no confining flow.
	for _, f := range wa.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if len(wallSource(wa.pass, call)) > 0 && !inDecl(call.Pos()) {
				wa.reportRead(call)
			}
			return true
		})
	}
}

func (wa *wallAnalysis) reportRead(call *ast.CallExpr) {
	sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := selectorFunc(wa.pass, sel)
	wa.pass.Reportf(sel.Pos(), "wall-clock time.%s in deterministic package %s; use the scheduler's simulated clock (sim.Scheduler.Now)", fn.Name(), wa.pass.PkgPath)
}

// scan walks one function and returns the set of wall tags that escape
// to a non-confined sink: returned, stored outside the function's
// locals, sent on a channel, or passed to a callee that is not a
// telemetry sink under the current summaries.
func (wa *wallAnalysis) scan(fd *ast.FuncDecl) tagSet {
	ff := wa.flows[fd]
	violated := make(tagSet)
	leak := func(e ast.Expr) {
		violated.mergeFrom(ff.exprTags(e))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				leak(r)
			}
		case *ast.SendStmt:
			leak(s.Value)
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				if rhs == nil || wa.localSink(ff, lhs) {
					continue
				}
				leak(rhs)
			}
		case *ast.CallExpr:
			for i, arg := range s.Args {
				ts := ff.exprTags(arg)
				if len(ts) == 0 {
					continue
				}
				if !wa.confinedArg(s, i) {
					violated.mergeFrom(ts)
				}
			}
		}
		return true
	})
	return violated
}

// localSink reports whether assigning to lhs keeps the value inside the
// function: a local variable, the blank identifier, or an element of a
// local container (the flow engine already taints the container).
func (wa *wallAnalysis) localSink(ff *funcFlow, lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		return v.Name == "_" || ff.localVar(v) != nil
	case *ast.IndexExpr:
		return ff.localVar(baseExpr(v.X)) != nil
	}
	return false
}

// confinedArg reports whether argument i of call is a confined sink for
// wall time: the time package itself (Since(start) reads, it does not
// leak), telemetry registry methods, stderr progress printing, safe
// builtins, or an in-package callee whose summary proves the parameter
// confined.
func (wa *wallAnalysis) confinedArg(call *ast.CallExpr, i int) bool {
	// Builtins: len/cap/append/copy extract or move values the flow
	// engine already tracks; they leak nothing themselves.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := wa.pass.Info.Uses[id].(*types.Builtin); ok {
			return b.Name() != "print" && b.Name() != "println"
		}
	}
	if isTypeConversion(wa.pass, call) {
		return true // conversions propagate, checked at the converted value's sinks
	}
	fn := calleeFunc(wa.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false // dynamic call: assume it leaks
	}
	if fn.Pkg().Path() == "time" {
		return true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedType(sig.Recv().Type()); named != nil && named.Obj().Pkg() != nil {
			if pkgPathMatches(named.Obj().Pkg().Path(), "internal/metrics") {
				return true
			}
		}
	}
	if fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "F") && len(call.Args) > 0 {
		if isStderr(wa.pass, call.Args[0]) {
			return true
		}
	}
	// In-package callee with a confinement summary.
	if conf, ok := wa.confined[fn]; ok {
		sig := fn.Type().(*types.Signature)
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1
		}
		if pi >= 0 && pi < len(conf) {
			return conf[pi]
		}
	}
	return false
}

// calleeFunc resolves the called function, through interfaces too (the
// confinement question is about the arg position, not dispatch).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func isStderr(pass *Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Stderr" {
		return false
	}
	obj := pass.Info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
