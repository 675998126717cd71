package stats

import (
	"math"
	"strings"
	"testing"
)

// FuzzTailMatchesPercentile: a P99 returns, bit for bit, what Percentile
// returns for the whole sample, at the sample's bound (slack 0) and below
// it. Each byte is one value, so a sample is full of ties; the seeds cover
// n = 1, 2, 100 and 101, a constant sample, and samples long enough that
// the tail keeps a small share of them.
func FuzzTailMatchesPercentile(f *testing.F) {
	ramp := func(n int, mod byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*131+7) % mod
		}
		return b
	}
	f.Add([]byte{5}, uint8(0))
	f.Add([]byte{5, 3}, uint8(0))
	f.Add([]byte{5, 3}, uint8(1))
	f.Add(ramp(100, 251), uint8(0))
	f.Add(ramp(100, 251), uint8(1))
	f.Add(ramp(101, 251), uint8(0))
	f.Add(ramp(101, 251), uint8(1))
	f.Add(ramp(101, 1), uint8(0))
	f.Add(ramp(3000, 17), uint8(0))
	f.Add(ramp(3000, 17), uint8(1))
	f.Add(ramp(2999, 251), uint8(40))
	f.Add(ramp(777, 9), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, slack uint8) {
		sample := make([]float64, len(data))
		for i, b := range data {
			sample[i] = float64(b) * 0.37
		}
		bound := len(sample) + int(slack)
		tail := NewP99(bound)
		for _, v := range sample {
			tail.Add(v)
		}
		if held := cap(tail.top); held > 2*(bound-int(0.99*float64(bound-1))+2) {
			t.Fatalf("a P99 of bound %d holds up to %d values", bound, held)
		}
		got, err := tail.Value()
		if err != nil {
			t.Fatal(err)
		}
		if want := Percentile(sample, 99); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d bound=%d: P99 = %v, Percentile %v", len(sample), bound, got, want)
		}
	})
}

// TestTailOverBound: one value past the bound is an error naming both
// numbers, not a percentile over whatever the tail kept.
func TestTailOverBound(t *testing.T) {
	tail := NewP99(1000)
	for i := range 1001 {
		tail.Add(float64(i))
	}
	_, err := tail.Value()
	if err == nil || !strings.Contains(err.Error(), "1001") || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("Value over the bound: err %v, want one naming 1001 values and the bound 1000", err)
	}
}
