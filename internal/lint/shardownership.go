package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// ShardOwnership enforces the ownership half of the sharded kernel's
// contract: state handed to ShardView(k) belongs to shard k, and only
// shard k may see it again. The dataflow engine tracks which scheduler
// view each local came from and which view each posted value was bound
// to; passing a value bound to one view through a second view — as a
// post argument or a store into another shard's state — is exactly the
// aliasing that makes a sharded run diverge from the sequential one, and
// that -race only catches when the schedule happens to interleave. The sanctioned crossing is
// PostToAt/PostToAfter with a Target: the frontier merge serializes it.
var ShardOwnership = &Analyzer{
	Name: "shardownership",
	Doc: "values bound to ShardView(k) may only be scheduled through shard k; " +
		"cross-shard work must flow through PostToAt/PostToAfter(Target), " +
		"and struct fields must not alias state across shard views",
	AppliesTo: func(pkgPath string) bool {
		// The kernel itself implements the frontier and legitimately
		// touches every view; the linter has no scheduler state.
		return pkgPath != "bufsim/internal/sim" && pkgPath != "bufsim/internal/lint"
	},
	Run: runShardOwnership,
}

// schedBindMethods are the Scheduler methods that bind their reference
// arguments (actors, payloads, event handles) to the view they are
// called on: the kernel will dispatch them on that view's shard.
var schedBindMethods = map[string]bool{
	"PostAt":    true,
	"PostAfter": true,
	"Cancel":    true,
}

func isSchedulerMethodCall(pass *Pass, call *ast.CallExpr) (*ast.SelectorExpr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	if !typeIsNamed(sig.Recv().Type(), "internal/sim", "Scheduler") {
		return nil, "", false
	}
	return sel, fn.Name(), true
}

// viewSource tags the result of every ShardView call with the view's
// identity: the constant shard index when the argument is one, else the
// call site (two dynamic calls are conservatively distinct views).
func viewSource(pass *Pass, e ast.Expr) []tag {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	_, name, ok := isSchedulerMethodCall(pass, call)
	if !ok || name != "ShardView" || len(call.Args) != 1 {
		return nil
	}
	key := "ShardView@" + posKey(pass, call.Pos())
	if tv, ok := pass.Info.Types[call.Args[0]]; ok && tv.Value != nil {
		if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			key = "ShardView(" + itoa(n) + ")"
		}
	}
	return []tag{{kind: "view", key: key}}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [24]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

var viewFlowSpec = flowSpec{
	source:       viewSource,
	throughIndex: true, // a slice of views carries all their identities
}

// bindableType reports whether a value of type t can alias shard state:
// anything with reference semantics, plus sim.Event handles (they pin
// the view that minted them).
func bindableType(t types.Type) bool {
	if t == nil {
		return false
	}
	if typeIsNamed(t, "internal/sim", "Event") {
		return true
	}
	if typeIsNamed(t, "internal/sim", "Scheduler") {
		// Views themselves are plural by design; tracked separately.
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Signature, *types.Map, *types.Chan, *types.Slice:
		return true
	}
	return false
}

func runShardOwnership(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		checkShardOwnershipFunc(pass, fd)
	}
	return nil
}

type ownershipReport struct {
	pos token.Pos
	msg string
}

func checkShardOwnershipFunc(pass *Pass, fd *ast.FuncDecl) {
	ff := newFuncFlow(pass, viewFlowSpec, fd)
	ff.solve()

	// Collect the view-context call sites in source order: scheduler
	// method calls whose receiver carries exactly one view identity.
	type bindSite struct {
		call *ast.CallExpr
		sel  *ast.SelectorExpr
		name string
	}
	var sites []bindSite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, name, ok := isSchedulerMethodCall(pass, call); ok && schedBindMethods[name] {
			sites = append(sites, bindSite{call: call, sel: sel, name: name})
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	reports := make(map[string]ownershipReport)
	record := func(pos token.Pos, msg string) {
		key := posKey(pass, pos) + "\x00" + msg
		if _, ok := reports[key]; !ok {
			reports[key] = ownershipReport{pos: pos, msg: msg}
		}
	}

	// Result-binding edges: ev := view.PostAfter(...) pins the event
	// handle to that view. Collected once; the fixpoint below re-solves
	// with the accumulated bind seeds until nothing new appears.
	resultDst := make(map[*ast.CallExpr][]*types.Var)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if v := ff.localVar(lhs); v != nil {
				resultDst[call] = append(resultDst[call], v)
			}
		}
		return true
	})

	for changed := true; changed; {
		changed = false
		ff.solve()
		for _, s := range sites {
			viewKey := singleKey(ff.exprTags(s.sel.X), "view")
			if viewKey == "" {
				continue
			}
			for _, arg := range s.call.Args {
				if !bindableType(pass.Info.Types[arg].Type) {
					continue
				}
				if prior := singleOther(ff.exprTags(arg), "bind", viewKey); prior != "" {
					record(arg.Pos(), exprString(arg)+" crosses shard views: bound to "+prior+", now scheduled through "+viewKey+"; cross-shard work must go through PostToAt/PostToAfter")
				} else if v := ff.localVar(arg); v != nil {
					// Keep the first binding: one bad crossing is one
					// finding, not a symmetric pair.
					if ff.seed(v, tag{kind: "bind", key: viewKey}, arg.Pos()) {
						changed = true
					}
				}
			}
			for _, v := range resultDst[s.call] {
				if ff.seed(v, tag{kind: "bind", key: viewKey}, s.call.Pos()) {
					changed = true
				}
			}
		}
	}

	// Field stores that alias across views: x.f = y where x and y are
	// bound to different views.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			dstKey := singleKey(ff.exprTags(baseExpr(sel.X)), "bind")
			srcKey := singleKey(ff.exprTags(as.Rhs[i]), "bind")
			if dstKey != "" && srcKey != "" && dstKey != srcKey {
				record(lhs.Pos(), "stores "+exprString(as.Rhs[i])+" (bound to "+srcKey+") into "+exprString(lhs)+" (bound to "+dstKey+"); cross-shard aliasing breaks the sharded equivalence proof")
			}
		}
		return true
	})

	keys := make([]string, 0, len(reports))
	for k := range reports {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]ownershipReport, 0, len(reports))
	for _, k := range keys {
		ordered = append(ordered, reports[k])
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].pos != ordered[j].pos {
			return ordered[i].pos < ordered[j].pos
		}
		return ordered[i].msg < ordered[j].msg
	})
	for _, r := range ordered {
		pass.Reportf(r.pos, "%s", r.msg)
	}
}

// singleKey returns the key when ts holds exactly one tag of the given
// kind, else "". Scheduler receivers with several possible views (a
// helper handed an arbitrary view) yield no context rather than a wrong
// one.
func singleKey(ts tagSet, kind string) string {
	key := ""
	for t := range ts {
		if t.kind != kind {
			continue
		}
		if key != "" && key != t.key {
			return ""
		}
		key = t.key
	}
	return key
}

// singleOther returns the (lexicographically first, for determinism)
// key of the given kind differing from k, or "".
func singleOther(ts tagSet, kind, k string) string {
	other := ""
	for t := range ts {
		if t.kind != kind || t.key == k {
			continue
		}
		if other == "" || t.key < other {
			other = t.key
		}
	}
	return other
}
