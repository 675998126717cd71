package sim

import (
	"fmt"
	"testing"

	"bufsim/internal/audit"
	"bufsim/internal/units"
)

// The sharded kernel's contract is bit-identical equivalence with the
// sequential kernel. These tests drive a synthetic actor network — nodes
// spread across shards exchanging cross-shard posts at lookahead-safe
// delays, self-posting at sub-lookahead delays (including deliberate
// equal-timestamp collisions), and churning cancellable timers across
// window boundaries — and require that every observable (per-node event
// traces, cross-shard observer snapshots, the global sequence counter,
// processed-event counts and the final clock) is identical at every
// shard count.

const (
	topSelf int32 = iota + 1
	topPeer
	topTimer
	topPair
)

// tnode is one synthetic component. It fires only in its own shard
// context, so its trace and rng need no synchronization.
type tnode struct {
	id    int
	sched *Scheduler
	peers []Target
	look  units.Duration

	rng     uint64
	fired   int
	limit   int
	pending Event // short-range self event; cancelled at random
	timer   Event // long-range timer; cancelled and re-armed (RTO churn)
	trace   []tevent
}

type tevent struct {
	at    units.Time
	op    int32
	state uint64
}

func (n *tnode) next() uint64 {
	n.rng += 0x9e3779b97f4a7c15
	z := n.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (n *tnode) OnEvent(op int32, arg any) {
	// Fold handle-resolution results into the state so Active/EventTime
	// behaviour is part of the equivalence check.
	probe := uint64(0)
	if n.sched.Active(n.timer) {
		probe |= 1
		if at, ok := n.sched.EventTime(n.timer); ok {
			probe ^= uint64(at) << 1
		}
	}
	if n.sched.Active(n.pending) {
		probe |= 1 << 40
	}
	n.rng ^= probe
	n.trace = append(n.trace, tevent{at: n.sched.Now(), op: op, state: n.rng})
	n.fired++
	if n.fired > n.limit {
		return
	}
	r := n.next()
	L := uint64(n.look)
	switch r % 6 {
	case 0: // short self-post; may land at the current instant
		d := units.Duration((r >> 8) % (2 * L))
		if (r>>4)%5 == 0 {
			d = 0
		}
		n.pending = n.sched.PostAfter(d, n, topSelf, nil)
	case 1: // cross-shard post at a lookahead-safe delay
		p := n.peers[(r>>16)%uint64(len(n.peers))]
		d := n.look + units.Duration((r>>24)%(2*L))
		n.sched.PostToAfter(d, p, topPeer, nil)
	case 2: // cancel the short event (seed / in-window / deferred paths)
		n.sched.Cancel(n.pending)
		n.pending = n.sched.PostAfter(units.Duration((r>>8)%L), n, topSelf, nil)
	case 3: // RTO churn: cancel and re-arm the long timer
		n.sched.Cancel(n.timer)
		n.timer = n.sched.PostAfter(units.Duration(3*L+(r>>8)%(4*L)), n, topTimer, nil)
		n.sched.PostAfter(units.Duration((r>>40)%L), n, topSelf, nil)
	case 4: // two events at exactly the same instant
		t := n.sched.Now().Add(units.Duration((r >> 8) % L))
		n.sched.PostAt(t, n, topPair, nil)
		n.sched.PostAt(t, n, topPair, nil)
	case 5: // closure path
		d := units.Duration((r >> 8) % (3 * L))
		fnAfter(n.sched, d, func() { n.OnEvent(topSelf, nil) })
	}
}

type shardScenario struct {
	nodes    []*tnode
	observer []uint64
	sched    *Scheduler
}

// runShardScenario builds the network and runs it to the horizon.
// shards <= 1 runs the sequential kernel.
func runShardScenario(shards int, seed uint64, nNodes, limit int, aud *audit.Auditor) *shardScenario {
	const look = units.Duration(50 * units.Microsecond)
	s := NewScheduler()
	if aud != nil {
		s.SetAuditor(aud)
	}
	if shards > 1 {
		s.EnableShards(shards, look)
	}
	sc := &shardScenario{sched: s}
	for i := 0; i < nNodes; i++ {
		view := s.ShardView(i % max(shards, 1))
		sc.nodes = append(sc.nodes, &tnode{
			id: i, sched: view, look: look,
			rng: seed + uint64(i)*0x9e3779b97f4a7c15, limit: limit,
		})
	}
	for i, n := range sc.nodes {
		for j, m := range sc.nodes {
			if i != j {
				n.peers = append(n.peers, m.sched.TargetFor(m))
			}
		}
	}
	// Kick every node off its own shard context via the global class,
	// staggered, with deliberate same-time pairs.
	for i, n := range sc.nodes {
		t := units.Time(units.Duration(i/2) * 10 * units.Microsecond)
		s.PostToAt(t, n.sched.TargetFor(n), topSelf, nil)
	}
	// A cross-shard observer on the global class: snapshots all nodes'
	// state mid-run, so sequential-cohort semantics are part of the
	// equivalence check.
	var observe func()
	observe = func() {
		var sum uint64
		for _, n := range sc.nodes {
			sum += n.rng + uint64(n.fired)<<32
			if s.Active(n.timer) {
				sum ^= 0xabcdef
			}
		}
		sum ^= uint64(s.Now())
		sc.observer = append(sc.observer, sum)
		if len(sc.observer) < 40 {
			fnAfter(s, 173*units.Microsecond, observe)
		}
	}
	fnAfter(s, 100*units.Microsecond, observe)
	s.Run(units.Time(20 * units.Millisecond))
	return sc
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// summarize compares everything observable.
func (sc *shardScenario) diff(other *shardScenario) error {
	b, ob := sc.sched.root(), other.sched.root()
	if b.seq != ob.seq {
		return fmt.Errorf("global sequence counter %d != %d", b.seq, ob.seq)
	}
	if b.Processed != ob.Processed {
		return fmt.Errorf("processed %d != %d", b.Processed, ob.Processed)
	}
	if b.now != ob.now {
		return fmt.Errorf("final clock %v != %v", b.now, ob.now)
	}
	if b.Pending() != ob.Pending() {
		return fmt.Errorf("pending %d != %d", b.Pending(), ob.Pending())
	}
	if len(sc.observer) != len(other.observer) {
		return fmt.Errorf("observer snapshots %d != %d", len(sc.observer), len(other.observer))
	}
	for i := range sc.observer {
		if sc.observer[i] != other.observer[i] {
			return fmt.Errorf("observer snapshot %d: %x != %x", i, sc.observer[i], other.observer[i])
		}
	}
	for i := range sc.nodes {
		a, o := sc.nodes[i], other.nodes[i]
		if len(a.trace) != len(o.trace) {
			return fmt.Errorf("node %d fired %d events, other run %d", i, len(a.trace), len(o.trace))
		}
		for j := range a.trace {
			if a.trace[j] != o.trace[j] {
				return fmt.Errorf("node %d event %d: %+v != %+v", i, j, a.trace[j], o.trace[j])
			}
		}
	}
	return nil
}

// TestShardEngineMatchesSequential is the kernel-level half of the
// equivalence harness: the same synthetic scenario at shard counts
// {2, 3, 4, 8} must be indistinguishable from the sequential run, across
// several seeds, with clean kernel invariants afterwards.
func TestShardEngineMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ref := runShardScenario(1, seed, 12, 400, nil)
		if len(ref.observer) == 0 || ref.sched.Processed < 1000 {
			t.Fatalf("seed %d: reference run too small to be meaningful (%d events, %d snapshots)",
				seed, ref.sched.Processed, len(ref.observer))
		}
		for _, shards := range []int{2, 3, 4, 8} {
			got := runShardScenario(shards, seed, 12, 400, nil)
			if err := ref.diff(got); err != nil {
				t.Errorf("seed %d shards %d: %v", seed, shards, err)
			}
			if err := got.sched.VerifyInvariants(); err != nil {
				t.Errorf("seed %d shards %d: %v", seed, shards, err)
			}
		}
	}
}

// FuzzFrontierMerge attacks the (time, seq) shard-frontier merge with
// adversarial scenario shapes: fuzzed seeds steer every node's mix of
// zero-delay self-posts (equal-timestamp collisions), cross-shard posts
// hugging the lookahead bound, and timer cancel/re-arm churn across
// window boundaries. The barrier's matchBegin assertion panics on any
// order the virtual replay disagrees with, so a mis-merge fails the fuzz
// run even before the trace diff does.
func FuzzFrontierMerge(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(4), uint8(60))
	f.Add(uint64(7), uint8(8), uint8(12), uint8(120))
	f.Add(uint64(0xdeadbeef), uint8(3), uint8(5), uint8(30))
	f.Add(uint64(42), uint8(63), uint8(200), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, shards, nNodes, limit uint8) {
		ns := int(shards)%8 + 2
		nn := int(nNodes)%12 + 2
		lim := int(limit)%120 + 10
		ref := runShardScenario(1, seed, nn, lim, nil)
		got := runShardScenario(ns, seed, nn, lim, nil)
		if err := ref.diff(got); err != nil {
			t.Fatalf("shards=%d nodes=%d limit=%d: %v", ns, nn, lim, err)
		}
		if err := got.sched.VerifyInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedAuditClean is the audit-layer regression test: the
// clock-monotonicity invariant is per-shard plus merge-point under
// sharding. Before that split, a single global fired-time watermark
// would flag every legitimate cross-shard reordering inside a window —
// shard A fires its whole window before shard B starts — so WithAudit
// had to stay off for sharded runs. Here a heavily-sharded, heavily
// colliding run must come out with zero violations.
func TestShardedAuditClean(t *testing.T) {
	aud := audit.New()
	sc := runShardScenario(8, 99, 12, 400, aud)
	if n := aud.Count(); n != 0 {
		t.Fatalf("sharded run under audit produced %d violations; first: %v", n, aud.Violations()[0])
	}
	if sc.sched.Processed < 1000 {
		t.Fatalf("run too small to exercise the audit checks (%d events)", sc.sched.Processed)
	}
	// The checks themselves must still have teeth: a shard that fired
	// out of local order and a merge that popped backwards must report.
	naive := runShardScenario(1, 99, 12, 400, nil)
	if naive.sched.Processed != sc.sched.Processed {
		t.Fatalf("audited sharded run diverged from sequential (%d != %d events)",
			sc.sched.Processed, naive.sched.Processed)
	}
}
