package main

import (
	"fmt"
	"math"
	"os"
)

// aaCheck measures the same code twice and asks whether the benchmark
// would tell the two apart: 2n end-to-end passes, alternately assigned to
// set A and set B so that drift in the machine falls on both. A workload's
// metric passes when the two medians differ by no more than the metric's
// bound and (setup_s aside, which is not gated on spread) each set's
// interquartile spread stays inside it too.
func (h *harness) aaCheck(spec benchSpec, selected []workload, seconds float64, n int) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failedReps := 0
	for pass := 0; pass < 2*n; pass++ {
		for i := range selected {
			w := &selected[i]
			e := h.measure(w, w.warmups, w.reps(seconds))
			failedReps += e.Failed
			for _, m := range spec.EndToEnd {
				k := key{w.name, m.Name}
				sets[pass%2][k] = append(sets[pass%2][k], e.metric(m.Name))
			}
			fmt.Fprintf(os.Stderr, "aa: pass %d/%d set %c %s wall_s %.4f\n", pass+1, 2*n, 'A'+rune(pass%2), w.name, e.WallS)
		}
	}

	fmt.Printf("A/A check: two interleaved sets of %d passes, seed %d, %.0f s timed phase\n", n, h.seed, seconds)
	fmt.Printf("%-24s %-12s %10s %10s %8s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound", "")
	bad := 0
	for i := range selected {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][key{selected[i].name, m.Name}], sets[1][key{selected[i].name, m.Name}]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			sa, sb := math.NaN(), math.NaN()
			if len(a) >= 2 {
				sa, sb = spread(a), spread(b)
			}
			verdict := "PASS"
			if math.Abs(diff) > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("%-24s %-12s %10.4f %10.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				selected[i].name, m.Name, ma, mb, 100*diff, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("failed reps: %d\n", failedReps)
	if bad > 0 || failedReps > 0 {
		return fmt.Errorf("A/A check: %d metric(s) outside their bound, %d failed reps", bad, failedReps)
	}
	return nil
}
