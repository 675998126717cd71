package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"bufsim/internal/units"
)

// The heap compares keys through precedes and picks a full group's earliest
// child by tournament. The reference below is what they did before: the
// two-branch (at, seq) compare and a linear scan that keeps the first of
// the earliest children.

type key struct {
	at  units.Time
	seq uint64
}

func refBefore(a, b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func refMinChild(kids []key) int {
	m := 0
	for j := 1; j < len(kids); j++ {
		if refBefore(kids[j], kids[m]) {
			m = j
		}
	}
	return m
}

// wantOrder is where one sift level leaves a parent (index 0) over leaf
// children (1..len(kids)): swapped with the reference's choice if that
// child is strictly earlier, untouched otherwise.
func wantOrder(parent key, kids []key) []int {
	order := make([]int, 1+len(kids))
	for i := range order {
		order[i] = i
	}
	if m := 1 + refMinChild(kids); refBefore(kids[m-1], parent) {
		order[0], order[m] = m, 0
	}
	return order
}

// baseSift runs one sift of the heap over the parent and its children,
// tagging every element with its starting index, and returns the tags in
// heap order afterwards.
func baseSift(parent key, kids []key) []int {
	s := NewScheduler()
	for i, k := range append([]key{parent}, kids...) {
		s.heap = append(s.heap, entry{at: k.at, seq: k.seq, slot: int32(i)})
		s.slots = append(s.slots, slot{})
	}
	s.siftDown(0)
	var order []int
	for _, e := range s.heap {
		order = append(order, int(e.slot))
	}
	return order
}

// checkSelection requires precedes to agree with the reference on every
// ordered pair of the keys, and the heap to sift as the reference does for
// groups of one to four.
func checkSelection(t *testing.T, parent key, kids []key) {
	t.Helper()
	all := append([]key{parent}, kids...)
	for _, a := range all {
		for _, b := range all {
			want := 0
			if refBefore(a, b) {
				want = 1
			}
			if got := precedes(a.at, a.seq, b.at, b.seq); got != want {
				t.Fatalf("precedes(%d,%d ; %d,%d) = %d, reference %d", a.at, a.seq, b.at, b.seq, got, want)
			}
		}
	}
	want := fmt.Sprint(wantOrder(parent, kids))
	if got := fmt.Sprint(baseSift(parent, kids)); got != want {
		t.Fatalf("parent %v over %v sifted to %s, reference %s", parent, kids, got, want)
	}
}

// edgeAts and edgeSeqs are the values where a sign-flipped borrow compare
// could go wrong: both ends of each range and the neighbours across the
// sign bit (−1/0 as signed, MaxInt64/MinInt64 as unsigned).
var (
	edgeAts  = []units.Time{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, math.MaxInt64 - 1, units.Never}
	edgeSeqs = []uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64}
)

// TestHeapSelectMatchesReference: named corner groups, then every pair of
// edge keys and 4 000 groups per size drawn from them (ties included),
// each under a parent drawn from them too.
func TestHeapSelectMatchesReference(t *testing.T) {
	last := key{units.Never, math.MaxUint64}
	for _, tc := range []struct {
		name   string
		parent key
		kids   []key
	}{
		{"equal at, seq 0, 1 and MaxUint64", last, []key{{5, math.MaxUint64}, {5, 1}, {5, 0}, {5, 1}}},
		{"equal at, earliest seq last", key{5, 2}, []key{{5, math.MaxUint64}, {5, 1}, {5, 3}, {5, 0}}},
		{"across the sign bit", last, []key{{0, 0}, {1, 0}, {-1, math.MaxUint64}, {-1, 0}}},
		{"extremes", last, []key{{units.Never, 0}, {math.MinInt64, math.MaxUint64}, {-1, 0}, {math.MinInt64, 0}}},
		{"all tied", key{0, 1}, []key{{0, 1}, {0, 1}, {0, 1}, {0, 1}}},
		{"tied minimum in both pairs", last, []key{{7, 9}, {3, 3}, {9, 1}, {3, 3}}},
		{"winner in the second pair", last, []key{{4, 0}, {4, 1}, {3, math.MaxUint64}, {-2, 0}}},
		{"parent earliest", key{math.MinInt64, 0}, []key{{math.MinInt64, 1}, {-1, 0}, {0, 0}, {units.Never, 0}}},
	} {
		for k := 1; k <= len(tc.kids); k++ {
			t.Run(fmt.Sprintf("%s/%d", tc.name, k), func(t *testing.T) { checkSelection(t, tc.parent, tc.kids[:k]) })
		}
	}

	var keys []key
	for _, at := range edgeAts {
		for _, seq := range edgeSeqs {
			keys = append(keys, key{at, seq})
		}
	}
	for _, a := range keys {
		for _, b := range keys {
			checkSelection(t, a, []key{b})
		}
	}
	rng := NewRNG(1)
	for k := 1; k <= 4; k++ {
		for n := 0; n < 4000; n++ {
			kids := make([]key, k)
			for i := range kids {
				kids[i] = keys[rng.Intn(len(keys))]
			}
			checkSelection(t, keys[rng.Intn(len(keys))], kids)
		}
	}
}

// FuzzHeapSelect decodes up to four keys, 16 bytes each (at, then seq,
// little-endian), and checks them as children under the latest key and
// under each of themselves.
func FuzzHeapSelect(f *testing.F) {
	enc := func(kids ...key) []byte {
		var b []byte
		for _, k := range kids {
			b = binary.LittleEndian.AppendUint64(b, uint64(k.at))
			b = binary.LittleEndian.AppendUint64(b, k.seq)
		}
		return b
	}
	f.Add(enc(key{5, math.MaxUint64}, key{5, 1}, key{5, 0}, key{5, 1}))
	f.Add(enc(key{0, 0}, key{-1, 0}, key{1, 0}, key{-1, 1}))
	f.Add(enc(key{units.Never, 0}, key{math.MinInt64, math.MaxUint64}, key{math.MinInt64, 0}))
	f.Add(enc(key{math.MaxInt64 - 1, 1}, key{units.Never, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var kids []key
		for ; len(data) >= 16 && len(kids) < 4; data = data[16:] {
			kids = append(kids, key{units.Time(binary.LittleEndian.Uint64(data)), binary.LittleEndian.Uint64(data[8:])})
		}
		if len(kids) == 0 {
			return
		}
		checkSelection(t, key{units.Never, math.MaxUint64}, kids)
		for _, p := range kids {
			checkSelection(t, p, kids)
		}
	})
}
