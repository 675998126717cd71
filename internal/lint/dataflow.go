package lint

// The intraprocedural dataflow engine behind the flow-aware analyzers
// (simdeterminism, shardownership, rngconfinement). The design is
// deliberately small: a *tag* is a fact about a value ("came from this
// time.Now call", "is the scheduler view for shard 1"), tags attach to
// expressions at *sources*, and a per-function fixpoint propagates them
// through local def-use chains. Analyzers then walk the function once
// more and ask each interesting expression which tags it carries.
//
// The engine is flow-insensitive within a function (a variable's tag
// set is the union over all its assignments) and purely intraprocedural
// except for one explicit bridge, constDef (single-assignment constant
// propagation, used by shardsafety). It errs on the side of fewer
// facts, so analyzers built on the engine miss exotic flows rather than
// inventing false ones.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// tag is one dataflow fact. kind namespaces the analyzer ("wall",
// "view", "bind", "rng", "nshard"); key identifies the source
// ("file:line:col" of the originating call, a constant shard index, a
// parameter name).
type tag struct {
	kind string
	key  string
}

// tagSet maps each tag to the position where it first attached.
type tagSet map[tag]token.Pos

func (ts tagSet) add(t tag, pos token.Pos) bool {
	if _, ok := ts[t]; ok {
		return false
	}
	ts[t] = pos
	return true
}

func (ts tagSet) mergeFrom(src tagSet) bool {
	changed := false
	for t, pos := range src {
		if ts.add(t, pos) {
			changed = true
		}
	}
	return changed
}

// flowSpec configures how tags propagate through expressions.
type flowSpec struct {
	// source returns the intrinsic tags of an expression — the facts
	// that hold regardless of dataflow (a call to time.Now, a
	// ShardView call). Consulted for every expression the evaluator
	// visits.
	source func(pass *Pass, e ast.Expr) []tag

	// throughMethods taints the result of a method call whose receiver
	// is tainted (time.Since(t0).Seconds() stays wall-tainted).
	throughMethods bool

	// throughOps taints the result of binary and unary arithmetic with
	// a tainted operand (wall/1e9, n-1).
	throughOps bool

	// throughIndex treats containers as tainted wholes: x[i], x[i:j],
	// range values and composite literals propagate element taint in
	// both directions. Leave false when indexing extracts a safe
	// scalar.
	throughIndex bool

	// throughContainerStore taints a local container when a tainted
	// value is stored into one of its elements (durations[i] = elapsed).
	throughContainerStore bool
}

// flowEdge is one def-use edge: dst acquires the tags of rhs.
type flowEdge struct {
	dst *types.Var
	rhs ast.Expr
	// viaIndex marks element extraction (range values), gated by
	// throughIndex; viaStore marks container stores (x[i] = rhs), gated
	// by throughContainerStore.
	viaIndex bool
	viaStore bool
}

// funcFlow is the dataflow solution for one function (including any
// function literals nested in it, which share the enclosing scope).
type funcFlow struct {
	pass  *Pass
	spec  flowSpec
	node  ast.Node // *ast.FuncDecl or *ast.FuncLit
	edges []flowEdge
	vars  map[*types.Var]tagSet
	// seeds carry externally injected tags (parameter sources for
	// summaries, shard-view bindings) that survive re-solving.
	seeds map[*types.Var]tagSet
}

func newFuncFlow(pass *Pass, spec flowSpec, node ast.Node) *funcFlow {
	ff := &funcFlow{
		pass:  pass,
		spec:  spec,
		node:  node,
		vars:  make(map[*types.Var]tagSet),
		seeds: make(map[*types.Var]tagSet),
	}
	ff.collectEdges()
	return ff
}

// localVar resolves an identifier to a function-local variable
// (parameters, results, and body declarations, including those of
// nested literals). Fields and package-level variables return nil: the
// engine tracks locals only, so anything stored elsewhere is handled by
// the analyzers' escape checks rather than silently propagated.
func (ff *funcFlow) localVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := ff.pass.Info.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Pos() < ff.node.Pos() || v.Pos() >= ff.node.End() {
		return nil
	}
	return v
}

func (ff *funcFlow) addEdge(lhs ast.Expr, rhs ast.Expr, viaIndex bool) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v := ff.localVar(id); v != nil {
			ff.edges = append(ff.edges, flowEdge{dst: v, rhs: rhs, viaIndex: viaIndex})
		}
		return
	}
	// x[i] = rhs taints the container x when the spec says stores do.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if v := ff.localVar(baseExpr(idx.X)); v != nil {
			ff.edges = append(ff.edges, flowEdge{dst: v, rhs: rhs, viaStore: true})
		}
	}
}

func (ff *funcFlow) collectEdges() {
	body := funcBody(ff.node)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					ff.addEdge(s.Lhs[i], s.Rhs[i], false)
				}
			} else if len(s.Rhs) == 1 {
				// Tuple assignment: every lhs acquires the call's tags.
				for i := range s.Lhs {
					ff.addEdge(s.Lhs[i], s.Rhs[0], false)
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					ff.addEdge(s.Names[i], s.Values[i], false)
				}
			} else if len(s.Values) == 1 {
				for i := range s.Names {
					ff.addEdge(s.Names[i], s.Values[0], false)
				}
			}
		case *ast.RangeStmt:
			if s.Key != nil {
				ff.addEdge(s.Key, s.X, true)
			}
			if s.Value != nil {
				ff.addEdge(s.Value, s.X, true)
			}
		}
		return true
	})
}

// seed injects externally supplied tags on a variable (a parameter
// under summary analysis, a shard binding) ahead of solving.
func (ff *funcFlow) seed(v *types.Var, t tag, pos token.Pos) bool {
	ts := ff.seeds[v]
	if ts == nil {
		ts = make(tagSet)
		ff.seeds[v] = ts
	}
	if !ts.add(t, pos) {
		return false
	}
	// Make the seed visible to exprTags immediately: callers interleave
	// seeding with queries (shardownership binds post sites in source
	// order), and solve() re-merges seeds anyway.
	dst := ff.vars[v]
	if dst == nil {
		dst = make(tagSet)
		ff.vars[v] = dst
	}
	dst.add(t, pos)
	return true
}

// solve runs the propagation fixpoint. Safe to call repeatedly after
// adding seeds; tag sets only grow, so the fixpoint terminates.
func (ff *funcFlow) solve() {
	for v, ts := range ff.seeds {
		dst := ff.vars[v]
		if dst == nil {
			dst = make(tagSet)
			ff.vars[v] = dst
		}
		dst.mergeFrom(ts)
	}
	for changed := true; changed; {
		changed = false
		for _, e := range ff.edges {
			if e.viaIndex && !ff.spec.throughIndex {
				continue
			}
			if e.viaStore && !ff.spec.throughContainerStore {
				continue
			}
			ts := ff.exprTags(e.rhs)
			if len(ts) == 0 {
				continue
			}
			dst := ff.vars[e.dst]
			if dst == nil {
				dst = make(tagSet)
				ff.vars[e.dst] = dst
			}
			if dst.mergeFrom(ts) {
				changed = true
			}
		}
	}
}

// exprTags evaluates the tags an expression carries under the current
// solution.
func (ff *funcFlow) exprTags(e ast.Expr) tagSet {
	out := make(tagSet)
	ff.addExprTags(out, e)
	return out
}

func (ff *funcFlow) addExprTags(out tagSet, e ast.Expr) {
	if e == nil {
		return
	}
	if ff.spec.source != nil {
		for _, t := range ff.spec.source(ff.pass, e) {
			out.add(t, e.Pos())
		}
	}
	switch v := e.(type) {
	case *ast.Ident:
		if lv := ff.localVar(v); lv != nil {
			out.mergeFrom(ff.vars[lv])
		}
	case *ast.ParenExpr:
		ff.addExprTags(out, v.X)
	case *ast.StarExpr:
		ff.addExprTags(out, v.X)
	case *ast.TypeAssertExpr:
		ff.addExprTags(out, v.X)
	case *ast.UnaryExpr:
		ff.addExprTags(out, v.X)
	case *ast.BinaryExpr:
		if ff.spec.throughOps {
			ff.addExprTags(out, v.X)
			ff.addExprTags(out, v.Y)
		}
	case *ast.IndexExpr:
		if ff.spec.throughIndex {
			ff.addExprTags(out, v.X)
		}
	case *ast.SliceExpr:
		if ff.spec.throughIndex {
			ff.addExprTags(out, v.X)
		}
	case *ast.CompositeLit:
		if ff.spec.throughIndex {
			for _, el := range v.Elts {
				ff.addExprTags(out, el)
			}
		}
	case *ast.KeyValueExpr:
		ff.addExprTags(out, v.Value)
	case *ast.CallExpr:
		if isTypeConversion(ff.pass, v) && len(v.Args) == 1 {
			ff.addExprTags(out, v.Args[0])
			return
		}
		if isBuiltinAppend(ff.pass, v) && len(v.Args) > 0 {
			// append's result aliases (or extends) its first argument.
			ff.addExprTags(out, v.Args[0])
			if ff.spec.throughIndex {
				for _, a := range v.Args[1:] {
					ff.addExprTags(out, a)
				}
			}
			return
		}
		if ff.spec.throughMethods {
			if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && isMethodCall(ff.pass, sel) {
				ff.addExprTags(out, sel.X)
			}
		}
	}
}

// constDef returns the constant value of a single-assignment local
// whose one definition is a compile-time constant — the def-use
// counterpart of types.Info.Types[expr].Value for plain literals.
func (ff *funcFlow) constDef(v *types.Var) (constant.Value, bool) {
	var def ast.Expr
	for _, e := range ff.edges {
		if e.dst != v {
			continue
		}
		if e.viaIndex || e.viaStore || def != nil {
			return nil, false // reassigned, or not a plain copy
		}
		def = e.rhs
	}
	if def == nil {
		return nil, false
	}
	tv, ok := ff.pass.Info.Types[def]
	if !ok || tv.Value == nil {
		return nil, false
	}
	return tv.Value, true
}

// constIntArg resolves a call argument to a constant int, either
// directly (a literal or named constant) or through a single-assignment
// local. The second result reports whether a constant was found.
func constIntArg(pass *Pass, ff *funcFlow, e ast.Expr) (int64, bool) {
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			return n, true
		}
		return 0, false
	}
	if ff == nil {
		return 0, false
	}
	if v := ff.localVar(e); v != nil {
		if val, ok := ff.constDef(v); ok {
			if n, exact := constant.Int64Val(constant.ToInt(val)); exact {
				return n, true
			}
		}
	}
	return 0, false
}

func funcBody(node ast.Node) *ast.BlockStmt {
	switch fn := node.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

func isTypeConversion(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func isMethodCall(pass *Pass, sel *ast.SelectorExpr) bool {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// namedType peels pointers off t and returns the underlying named type,
// or nil.
func namedType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeIsNamed reports whether t (possibly behind a pointer) is the
// named type pkgSuffix.name, matching the package by import-path
// suffix so fixture packages under testdata/src qualify.
func typeIsNamed(t types.Type, pkgSuffix, name string) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == name && pkgPathMatches(named.Obj().Pkg().Path(), pkgSuffix)
}

// pkgPathMatches reports whether path is pkgSuffix or ends in
// "/"+pkgSuffix — the same convention the syntactic analyzers use so
// that both the real tree and synthetic fixture modules match.
func pkgPathMatches(path, pkgSuffix string) bool {
	if path == pkgSuffix {
		return true
	}
	n := len(path) - len(pkgSuffix)
	return n > 0 && path[n-1] == '/' && path[n:] == pkgSuffix
}

// funcDecls returns every function declaration with a body, in file
// order — the analysis unit of the flow-aware analyzers.
func funcDecls(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// posKey renders a position as a stable tag key.
func posKey(pass *Pass, pos token.Pos) string {
	return pass.Fset.Position(pos).String()
}
