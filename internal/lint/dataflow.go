package lint

// The intraprocedural dataflow engine behind simdeterminism's flow check.
// The design is deliberately small: a *tag* is a fact about a value
// ("came from this time.Now call"), tags attach to expressions at
// *sources*, and a per-function fixpoint propagates them through local
// def-use chains. The analyzer then walks the function once more and asks
// each interesting expression which tags it carries.
//
// The engine is flow-insensitive within a function (a variable's tag
// set is the union over all its assignments) and purely intraprocedural.
// It errs on the side of fewer facts, so an analyzer built on it misses
// exotic flows rather than inventing false ones.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// tag is one dataflow fact. kind namespaces it ("wall", "wallp"); key
// identifies the source ("file:line:col" of the originating call or
// parameter).
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

// flowEdge is one def-use edge: dst acquires the tags of rhs.
//
// Tags flow through method calls on a tainted receiver
// (time.Since(t0).Seconds()), through arithmetic (wall/1e9), and through
// containers as tainted wholes: x[i], x[i:j], range values, composite
// literals and stores into an element (durations[i] = elapsed) carry the
// container's taint both ways.
type flowEdge struct {
	dst *types.Var
	rhs ast.Expr
}

// funcFlow is the dataflow solution for one function (including any
// function literals nested in it, which share the enclosing scope).
type funcFlow struct {
	pass *Pass
	// source returns the intrinsic tags of an expression — the facts
	// that hold regardless of dataflow (a call to time.Now). Consulted
	// for every expression the evaluator visits.
	source func(pass *Pass, e ast.Expr) []tag
	node   ast.Node // *ast.FuncDecl
	edges  []flowEdge
	vars   map[*types.Var]tagSet
	// seeds carry externally injected tags (parameter sources for
	// summaries) that survive re-solving.
	seeds map[*types.Var]tagSet
}

func newFuncFlow(pass *Pass, source func(*Pass, ast.Expr) []tag, node *ast.FuncDecl) *funcFlow {
	ff := &funcFlow{
		pass:   pass,
		source: source,
		node:   node,
		vars:   make(map[*types.Var]tagSet),
		seeds:  make(map[*types.Var]tagSet),
	}
	ff.collectEdges(node.Body)
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

func (ff *funcFlow) addEdge(lhs ast.Expr, rhs ast.Expr) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v := ff.localVar(id); v != nil {
			ff.edges = append(ff.edges, flowEdge{dst: v, rhs: rhs})
		}
		return
	}
	// x[i] = rhs taints the container x.
	if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		if v := ff.localVar(baseExpr(idx.X)); v != nil {
			ff.edges = append(ff.edges, flowEdge{dst: v, rhs: rhs})
		}
	}
}

func (ff *funcFlow) collectEdges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					ff.addEdge(s.Lhs[i], s.Rhs[i])
				}
			} else if len(s.Rhs) == 1 {
				// Tuple assignment: every lhs acquires the call's tags.
				for i := range s.Lhs {
					ff.addEdge(s.Lhs[i], s.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					ff.addEdge(s.Names[i], s.Values[i])
				}
			} else if len(s.Values) == 1 {
				for i := range s.Names {
					ff.addEdge(s.Names[i], s.Values[0])
				}
			}
		case *ast.RangeStmt:
			if s.Key != nil {
				ff.addEdge(s.Key, s.X)
			}
			if s.Value != nil {
				ff.addEdge(s.Value, s.X)
			}
		}
		return true
	})
}

// seed injects externally supplied tags on a variable (a parameter
// under summary analysis) ahead of solving.
func (ff *funcFlow) seed(v *types.Var, t tag, pos token.Pos) bool {
	ts := ff.seeds[v]
	if ts == nil {
		ts = make(tagSet)
		ff.seeds[v] = ts
	}
	if !ts.add(t, pos) {
		return false
	}
	// Make the seed visible to exprTags immediately; solve() re-merges
	// seeds anyway.
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
	for _, t := range ff.source(ff.pass, e) {
		out.add(t, e.Pos())
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
		ff.addExprTags(out, v.X)
		ff.addExprTags(out, v.Y)
	case *ast.IndexExpr:
		ff.addExprTags(out, v.X)
	case *ast.SliceExpr:
		ff.addExprTags(out, v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			ff.addExprTags(out, el)
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
			for _, a := range v.Args {
				ff.addExprTags(out, a)
			}
			return
		}
		if sel, ok := ast.Unparen(v.Fun).(*ast.SelectorExpr); ok && isMethodCall(ff.pass, sel) {
			ff.addExprTags(out, sel.X)
		}
	}
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
// order — the analysis unit of the flow analysis.
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
