package tcp

import (
	"fmt"
	"testing"

	"bufsim/internal/sim"
)

// runsOf builds the run form of a segment set.
func runsOf(set map[int64]bool) seqRuns {
	var r seqRuns
	for s := range set {
		r.add(s)
	}
	return r
}

// checkRuns verifies the run invariant — sorted, disjoint, non-adjacent,
// non-empty — and that r holds exactly the members of model within
// [0, span).
func checkRuns(r seqRuns, model map[int64]bool, span int64) error {
	for i, run := range r {
		if run[0] >= run[1] {
			return fmt.Errorf("run %d of %v is empty", i, r)
		}
		if i > 0 && r[i-1][1] >= run[0] {
			return fmt.Errorf("runs %d and %d of %v overlap, touch or are out of order", i-1, i, r)
		}
	}
	var n int64
	for s := int64(0); s < span; s++ {
		if r.has(s) != model[s] {
			return fmt.Errorf("has(%d) = %v, model says %v; runs %v", s, r.has(s), model[s], r)
		}
		if model[s] {
			n++
		}
	}
	if got := r.count(0, span); got != n {
		return fmt.Errorf("count = %d, model holds %d; runs %v", got, n, r)
	}
	return nil
}

// seqRunsAgainstModel drives a seqRuns and a map[int64]bool — the
// representation the runs replaced — through the operations the receiver
// and the scoreboard perform, one per three bytes of script, and checks
// them against each other after every step.
func seqRunsAgainstModel(script []byte) error {
	const span = 64
	var r seqRuns
	model := map[int64]bool{}
	for step := 0; len(script) >= 3; step, script = step+1, script[3:] {
		op, a, b := script[0]%6, int64(script[1]%span), int64(script[2]%span)
		var what string
		switch op {
		case 0, 1: // one segment, as an out-of-order arrival or a retransmission
			what = fmt.Sprintf("add(%d)", a)
			if fresh := r.add(a); fresh == model[a] {
				return fmt.Errorf("step %d: %s reported fresh=%v with the model at %v", step, what, fresh, model[a])
			}
			model[a] = true
		case 2: // a SACK block
			lo, hi := min(a, b), max(a, b)+1
			what = fmt.Sprintf("addRange(%d, %d)", lo, hi)
			r.addRange(lo, hi)
			for s := lo; s < hi; s++ {
				model[s] = true
			}
		case 3: // a cumulative ACK
			what = fmt.Sprintf("trim(%d)", a)
			r.trim(a)
			for s := range model {
				if s < a {
					delete(model, s)
				}
			}
		case 4: // the receiver's drain: an in-order arrival reaches the first run
			if len(r) == 0 {
				continue
			}
			next := r[0][0]
			what = fmt.Sprintf("drain from %d", next)
			end := r[0][1]
			r.trim(end)
			for model[next] {
				delete(model, next)
				next++
			}
			if next != end {
				return fmt.Errorf("step %d: %s stopped at %d, the model at %d", step, what, end, next)
			}
		case 5: // a clipped count, as pipe takes it
			lo, hi := min(a, b), max(a, b)
			var n int64
			for s := lo; s < hi; s++ {
				if model[s] {
					n++
				}
			}
			if got := r.count(lo, hi); got != n {
				return fmt.Errorf("step %d: count(%d, %d) = %d, model %d; runs %v", step, lo, hi, got, n, r)
			}
			continue
		}
		if err := checkRuns(r, model, span); err != nil {
			return fmt.Errorf("step %d, after %s: %v", step, what, err)
		}
	}
	return nil
}

// TestSeqRunsMatchesMapModel: random operation sequences, dense enough
// that runs merge, split off their heads and empty out.
func TestSeqRunsMatchesMapModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 21, 34} {
		rng := sim.NewRNG(seed)
		script := make([]byte, 3*400)
		for i := range script {
			script[i] = byte(rng.Intn(256))
		}
		if err := seqRunsAgainstModel(script); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func FuzzSeqRuns(f *testing.F) {
	f.Add([]byte{0, 5, 0, 0, 7, 0, 0, 6, 0, 3, 6, 0})              // two runs bridged, then trimmed mid-run
	f.Add([]byte{2, 10, 20, 2, 30, 40, 2, 15, 35, 4, 0, 0})        // a block swallowing two others, drained
	f.Add([]byte{2, 63, 0, 3, 63, 0, 0, 63, 0, 1, 0, 0, 5, 0, 63}) // the whole span, trimmed to its last member
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := seqRunsAgainstModel(script); err != nil {
			t.Fatal(err)
		}
	})
}
