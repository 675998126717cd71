package lint

import (
	"go/ast"
	"go/types"
)

// RNGConfinement enforces the randomness half of the sharded contract:
// every *sim.RNG / *rand.Rand stream belongs to exactly one shard, and
// the number of draws a stream makes must not depend on how many shards
// the run was split into. Either violation breaks determinism twice
// over — the stream's sequence diverges between runs, and the
// sharded≡unsharded equivalence proof loses its premise that shard
// count only re-orders work, never changes it.
//
// Three rules, all on the dataflow engine:
//   - a stream must not cross the frontier: an RNG passed through
//     PostToAt/PostToAfter executes on another shard;
//   - a stream must not be scheduled through two different shard views
//     in one function (the intraprocedural slice of "one stream, one
//     shard"); Fork() per component is the sanctioned idiom — each
//     fork is a fresh stream, so forking for another shard is fine;
//   - a draw site must not be control-dependent on the shard count
//     (ShardCount(), a Shards config field): if the branch executes at
//     all, it must draw the same values at every shard count.
var RNGConfinement = &Analyzer{
	Name: "rngconfinement",
	Doc: "each *sim.RNG / *rand.Rand stream stays on one shard: no RNG through the " +
		"PostToAt/PostToAfter frontier, no stream scheduled through two shard views, " +
		"and no draw site control-dependent on the shard count",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath != "bufsim/internal/sim" && pkgPath != "bufsim/internal/lint"
	},
	Run: runRNGConfinement,
}

func isRNGType(t types.Type) bool {
	return typeIsNamed(t, "internal/sim", "RNG") || typeIsNamed(t, "math/rand", "Rand")
}

// rngSource tags stream-minting calls: sim.NewRNG, RNG.Fork, rand.New.
// Each mint is a distinct stream.
func rngSource(pass *Pass, e ast.Expr) []tag {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	tv, ok := pass.Info.Types[call]
	if !ok || !isRNGType(tv.Type) {
		return nil
	}
	return []tag{{kind: "rng", key: "stream@" + posKey(pass, call.Pos())}}
}

// shardCountSource tags reads of the shard count: Scheduler.ShardCount
// calls and selections of a field named Shards.
func shardCountSource(pass *Pass, e ast.Expr) []tag {
	switch v := e.(type) {
	case *ast.CallExpr:
		if _, name, ok := isSchedulerMethodCall(pass, v); ok && name == "ShardCount" {
			return []tag{{kind: "nshard", key: "ShardCount"}}
		}
	case *ast.SelectorExpr:
		if fld, ok := pass.Info.Uses[v.Sel].(*types.Var); ok && fld.IsField() && fld.Name() == "Shards" {
			return []tag{{kind: "nshard", key: "Shards"}}
		}
	}
	return nil
}

var rngFlowSpec = flowSpec{
	source: func(pass *Pass, e ast.Expr) []tag {
		return append(rngSource(pass, e), shardCountSource(pass, e)...)
	},
	throughOps:   true, // 1 + i%(n-1) stays shard-count-dependent
	throughIndex: true, // a slice of streams carries them all
}

func runRNGConfinement(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		checkRNGConfinementFunc(pass, fd)
	}
	return nil
}

func checkRNGConfinementFunc(pass *Pass, fd *ast.FuncDecl) {
	ff := newFuncFlow(pass, rngFlowSpec, fd)
	ff.solve()

	// Rule 1: no RNG value through the cross-shard frontier, and rule 2:
	// no stream scheduled through two different shard views. View
	// identity rides on a second flow with the shardownership spec.
	vf := newFuncFlow(pass, viewFlowSpec, fd)
	vf.solve()
	streamView := make(map[*types.Var]string) // RNG local -> view key it is bound to

	for pass2 := 0; pass2 < 2; pass2++ {
		// Two passes so a binding later in the function still conflicts
		// with a use earlier in it; reports only on the second pass.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, name, ok := isSchedulerMethodCall(pass, call)
			if !ok {
				return true
			}
			if name == "PostToAt" || name == "PostToAfter" {
				for _, arg := range call.Args {
					if t := pass.Info.Types[arg].Type; t != nil && isRNGType(t) {
						if pass2 == 1 {
							pass.Reportf(arg.Pos(), "RNG stream %s crosses the shard frontier through %s; streams are shard-local — Fork one per component instead", exprString(arg), name)
						}
					}
				}
				return true
			}
			if !schedBindMethods[name] {
				return true
			}
			viewKey := singleKey(vf.exprTags(sel.X), "view")
			if viewKey == "" {
				return true
			}
			for _, arg := range call.Args {
				if t := pass.Info.Types[arg].Type; t == nil || !isRNGType(t) {
					continue
				}
				v := ff.localVar(arg)
				if v == nil {
					continue
				}
				// Keep the first binding so one bad rebinding doesn't
				// cascade.
				if prior, bound := streamView[v]; !bound {
					streamView[v] = viewKey
				} else if prior != viewKey && pass2 == 1 {
					pass.Reportf(arg.Pos(), "RNG stream %s is scheduled through %s but already belongs to %s; a stream is shard-local — Fork a new one per shard", v.Name(), viewKey, prior)
				}
			}
			return true
		})
	}

	// Rule 3: draw sites not control-dependent on the shard count. Find
	// branch statements whose condition carries an nshard tag and scan
	// their bodies for draws.
	reportDraws := func(body ast.Node, what string) {
		ast.Inspect(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil || !isRNGType(sig.Recv().Type()) {
				return true
			}
			// Fork counts too: forking advances the parent stream, so a
			// shard-count-dependent fork perturbs every later draw.
			pass.Reportf(call.Pos(), "RNG draw %s.%s is control-dependent on the shard count (%s); the stream would advance differently at different shard counts, breaking sharded≡unsharded equivalence", exprString(sel.X), fn.Name(), what)
			return true
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			if k := anyKindKey(ff.exprTags(s.Cond), "nshard"); k != "" {
				reportDraws(s.Body, k)
				if s.Else != nil {
					reportDraws(s.Else, k)
				}
			}
		case *ast.ForStmt:
			if s.Cond != nil {
				if k := anyKindKey(ff.exprTags(s.Cond), "nshard"); k != "" {
					reportDraws(s.Body, k)
				}
			}
		case *ast.SwitchStmt:
			if s.Tag != nil {
				if k := anyKindKey(ff.exprTags(s.Tag), "nshard"); k != "" {
					reportDraws(s.Body, k)
				}
			}
		}
		return true
	})
}

// anyKindKey returns the lexicographically first key of the given kind.
func anyKindKey(ts tagSet, kind string) string {
	key := ""
	for t := range ts {
		if t.kind != kind {
			continue
		}
		if key == "" || t.key < key {
			key = t.key
		}
	}
	return key
}
