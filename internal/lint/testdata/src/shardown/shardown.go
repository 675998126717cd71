// Package shardown is the shardownership fixture: state handed to
// ShardView(k) belongs to shard k, and only shard k may see it again.
// Scheduling it through another view — directly, or by aliasing through
// a field store — is the violation; the
// PostToAt/PostToAfter(Target) frontier, one view per component, and
// helpers handed a single arbitrary view are the blessed idioms.
package shardown

import (
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

const opKick = 1

type actor struct {
	peer *actor
}

func (a *actor) OnEvent(op int32, arg any) {}

// doubleBind schedules one actor through two views: both shards would
// dispatch into its state.
func doubleBind(s *sim.Scheduler, a *actor) {
	v0 := s.ShardView(0)
	v1 := s.ShardView(1)
	v0.PostAfter(units.Second, a, opKick, nil)
	v1.PostAfter(units.Second, a, opKick, nil) // want `a crosses shard views: bound to ShardView\(0\), now scheduled through ShardView\(1\)`
}

// eventRebind cancels shard 0's event through shard 1's view: the
// handle pins the view that minted it.
func eventRebind(s *sim.Scheduler, a *actor) {
	v0 := s.ShardView(0)
	v1 := s.ShardView(1)
	ev := v0.PostAfter(units.Second, a, opKick, nil)
	v1.Cancel(ev) // want `ev crosses shard views: bound to ShardView\(0\), now scheduled through ShardView\(1\)`
}

// fieldAlias stores shard 0's actor into shard 1's actor: the next
// dispatch on shard 1 reaches across the cut through the field.
func fieldAlias(s *sim.Scheduler, a, b *actor) {
	v0 := s.ShardView(0)
	v1 := s.ShardView(1)
	v0.PostAfter(units.Second, a, opKick, nil)
	v1.PostAfter(units.Second, b, opKick, nil)
	b.peer = a // want `stores a \(bound to ShardView\(0\)\) into b\.peer \(bound to ShardView\(1\)\)`
}

// frontier is the sanctioned crossing: cross-shard work goes through a
// Target and the PostToAt/PostToAfter merge point.
func frontier(s *sim.Scheduler, a *actor) {
	v1 := s.ShardView(1)
	v1.PostAfter(units.Second, a, opKick, nil)
	tg := s.TargetFor(a)
	s.PostToAfter(units.Second, tg, opKick, nil)
}

// sameView twice is the normal shard-local pattern.
func sameView(s *sim.Scheduler, a *actor) {
	v := s.ShardView(2)
	v.PostAfter(units.Second, a, opKick, nil)
	v.PostAfter(2*units.Second, a, opKick, nil)
}

// helper is handed one arbitrary view: it mints no view identity of its
// own, so the intraprocedural analysis stays silent rather than guess.
func helper(view *sim.Scheduler, a *actor) {
	view.PostAfter(units.Second, a, opKick, nil)
}

// perShard gives each shard its own actor: bindings never conflict.
func perShard(s *sim.Scheduler, as []*actor) {
	for i, a := range as {
		v := s.ShardView(i)
		v.PostAfter(units.Second, a, opKick, nil)
	}
}
