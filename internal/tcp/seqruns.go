package tcp

// seqRuns is a set of segment numbers held as sorted, disjoint,
// non-adjacent [start, end) runs. TCP's loss state — what a receiver
// holds out of order, what a sender knows to be SACKed or has
// retransmitted — is a handful of such runs however wide the window, and
// new members arrive at or next to the last one, so lookups and inserts
// scan from the tail; every operation is O(runs) at worst. The slice is
// truncated and shifted in place, never reallocated once it has seen its
// widest spread.
type seqRuns [][2]int64

// find returns the index of the run containing s, or -1.
func (r seqRuns) find(s int64) int {
	for i := len(r) - 1; i >= 0 && r[i][1] > s; i-- {
		if r[i][0] <= s {
			return i
		}
	}
	return -1
}

func (r seqRuns) has(s int64) bool { return r.find(s) >= 0 }

// count returns how many members lie in [lo, hi).
func (r seqRuns) count(lo, hi int64) (n int64) {
	for _, run := range r {
		if a, b := max(run[0], lo), min(run[1], hi); a < b {
			n += b - a
		}
	}
	return n
}

// add inserts s and reports whether it was absent.
func (r *seqRuns) add(s int64) bool {
	if r.has(s) {
		return false
	}
	r.addRange(s, s+1)
	return true
}

// addRange inserts [lo, hi), lo < hi, merging every run it overlaps or
// abuts.
func (r *seqRuns) addRange(lo, hi int64) {
	a := *r
	i := len(a) // a[i:j] are the runs the range touches
	for i > 0 && a[i-1][1] >= lo {
		i--
	}
	j := i
	for j < len(a) && a[j][0] <= hi {
		j++
	}
	if i == j {
		a = append(a, [2]int64{})
		copy(a[i+1:], a[i:])
	} else {
		lo, hi = min(lo, a[i][0]), max(hi, a[j-1][1])
		a = append(a[:i+1], a[j:]...)
	}
	a[i] = [2]int64{lo, hi}
	*r = a
}

// trim removes every member below s.
func (r *seqRuns) trim(s int64) {
	a := *r
	n := 0
	for n < len(a) && a[n][1] <= s {
		n++
	}
	if n > 0 {
		a = a[:copy(a, a[n:])]
	}
	if len(a) > 0 && a[0][0] < s {
		a[0][0] = s
	}
	*r = a
}
