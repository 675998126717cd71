// Package rngconf is the rngconfinement fixture: every RNG stream
// belongs to exactly one shard, and the number of draws a stream makes
// must not depend on the shard count. Forking one stream per component
// is the blessed idiom.
package rngconf

import (
	"bufsim/internal/sim"
	"bufsim/internal/units"
)

const opPull = 1

type source struct{ rate float64 }

func (s *source) OnEvent(op int32, arg any) {}

// frontierRNG hands a stream across the merge point: another shard
// would draw from it.
func frontierRNG(s *sim.Scheduler, a *source) {
	rng := sim.NewRNG(1)
	tg := s.TargetFor(a)
	s.PostToAfter(units.Second, tg, opPull, rng) // want `RNG stream rng crosses the shard frontier through PostToAfter`
}

// twoShardStream hands one stream to events on two shards.
func twoShardStream(s *sim.Scheduler, a0, a1 *source) {
	rng := sim.NewRNG(1)
	v0 := s.ShardView(0)
	v1 := s.ShardView(1)
	v0.PostAfter(units.Second, a0, opPull, rng)
	v1.PostAfter(units.Second, a1, opPull, rng) // want `RNG stream rng is scheduled through ShardView\(1\) but already belongs to ShardView\(0\)`
}

// forkPerShard is the sanctioned idiom: each shard draws from its own
// fork.
func forkPerShard(s *sim.Scheduler, a0, a1 *source) {
	parent := sim.NewRNG(1)
	v0 := s.ShardView(0)
	v1 := s.ShardView(1)
	r0 := parent.Fork()
	r1 := parent.Fork()
	v0.PostAfter(units.Second, a0, opPull, r0)
	v1.PostAfter(units.Second, a1, opPull, r1)
}

type cfg struct{ Shards int }

// shardCountDraw draws only when the run is sharded: the stream
// advances differently at different shard counts.
func shardCountDraw(s *sim.Scheduler, rng *sim.RNG) float64 {
	if s.ShardCount() > 1 {
		return rng.Float64() // want `RNG draw rng\.Float64 is control-dependent on the shard count \(ShardCount\)`
	}
	return rng.Float64()
}

// configDraw reaches the shard count through a config field and a
// local: the dataflow engine carries the taint into the condition.
func configDraw(c cfg, rng *sim.RNG) int {
	n := c.Shards
	if n > 1 {
		return rng.Intn(n) // want `RNG draw rng\.Intn is control-dependent on the shard count \(Shards\)`
	}
	return 0
}

// forkUnderBranch counts too: forking advances the parent stream, so a
// shard-count-dependent fork perturbs every later draw.
func forkUnderBranch(c cfg, parent *sim.RNG) *sim.RNG {
	if c.Shards > 1 {
		return parent.Fork() // want `RNG draw parent\.Fork is control-dependent on the shard count \(Shards\)`
	}
	return parent
}

// blessed: drawing before the branch and branching on the count without
// drawing are both fine — the stream advances identically either way.
func blessed(c cfg, rng *sim.RNG) int {
	x := rng.Intn(10)
	if c.Shards > 1 {
		return x + 1
	}
	return x
}
