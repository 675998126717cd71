package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"bufsim/internal/sim"
	"bufsim/internal/units"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(v)
	}
	if w.N() != 8 {
		t.Errorf("N = %d", w.N())
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if got := w.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("empty Welford not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Errorf("single-sample Welford: mean=%v var=%v", w.Mean(), w.Variance())
	}
}

func TestWelfordMatchesDirectComputation(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range vals {
			w.Add(v)
			sum += v
		}
		mean := sum / float64(len(vals))
		ss := 0.0
		for _, v := range vals {
			ss += (v - mean) * (v - mean)
		}
		variance := ss / float64(len(vals)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(w.Mean()-mean) < 1e-9*scale &&
			math.Abs(w.Variance()-variance) < 1e-6*math.Max(1, variance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 0)
	tw.Set(10, units.Time(units.Second))   // value 0 for 1s
	tw.Set(20, units.Time(3*units.Second)) // value 10 for 2s
	// At t=4s: value 20 for 1s. Mean = (0*1 + 10*2 + 20*1)/4 = 10.
	if got := tw.Mean(units.Time(4 * units.Second)); math.Abs(got-10) > 1e-9 {
		t.Errorf("Mean = %v, want 10", got)
	}
	if tw.Max() != 20 {
		t.Errorf("Max = %v, want 20", tw.Max())
	}
	if tw.Current() != 20 {
		t.Errorf("Current = %v, want 20", tw.Current())
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean(units.Time(units.Second)) != 0 {
		t.Error("empty TimeWeighted mean not 0")
	}
}

func TestTimeWeightedBackwardPanics(t *testing.T) {
	var tw TimeWeighted
	tw.Set(1, units.Time(units.Second))
	defer func() {
		if recover() == nil {
			t.Error("backward Set did not panic")
		}
	}()
	tw.Set(2, 0)
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	if h.N() != 12 {
		t.Errorf("N = %d", h.N())
	}
	under, over := h.OutOfRange()
	if under != 1 || over != 1 {
		t.Errorf("out of range = %d/%d", under, over)
	}
	for i := 0; i < 10; i++ {
		center, count := h.Bin(i)
		if count != 1 {
			t.Errorf("bin %d count = %d, want 1", i, count)
		}
		if math.Abs(center-(float64(i)+0.5)) > 1e-12 {
			t.Errorf("bin %d center = %v", i, center)
		}
	}
	// Density integrates to (in-range fraction).
	total := 0.0
	for i := 0; i < h.NumBins(); i++ {
		total += h.Density(i) * 1.0 // bin width 1
	}
	if math.Abs(total-10.0/12) > 1e-9 {
		t.Errorf("density integral = %v, want 10/12", total)
	}
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad histogram did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(s, 50); got != 5.5 {
		t.Errorf("P50 = %v, want 5.5", got)
	}
	if got := Percentile(s, 0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := Percentile(s, 100); got != 10 {
		t.Errorf("P100 = %v, want 10", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	// Percentile must not mutate its input.
	s2 := []float64{3, 1, 2}
	Percentile(s2, 50)
	if s2[0] != 3 || s2[1] != 1 || s2[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocation index = %v, want 1", got)
	}
	// One hog among n flows: index = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("single-hog index = %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty index = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero index = %v, want 1", got)
	}
	// Order invariance.
	a := JainIndex([]float64{1, 2, 3})
	b := JainIndex([]float64{3, 1, 2})
	if a != b {
		t.Error("JainIndex not order-invariant")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.6449, 0.95},
		{-1.6449, 0.05},
		{2.3263, 0.99},
		{3.0902, 0.999},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.01, 0.05, 0.5, 0.9, 0.98, 0.995, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}

func TestNormalQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NormalQuantile(%v) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestKSNormalAcceptsGaussianSample(t *testing.T) {
	rng := sim.NewRNG(42)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = rng.Normal(100, 15)
	}
	d := KSNormal(sample, 100, 15)
	if d > 0.03 {
		t.Errorf("KS distance for a true Gaussian sample = %v, want < 0.03", d)
	}
}

func TestKSNormalRejectsUniformSample(t *testing.T) {
	rng := sim.NewRNG(42)
	sample := make([]float64, 5000)
	for i := range sample {
		sample[i] = rng.Uniform(0, 1)
	}
	// Compare against a normal with matched moments; the KS distance of
	// U(0,1) vs its moment-matched normal is about 0.06.
	d := KSNormal(sample, 0.5, math.Sqrt(1.0/12))
	if d < 0.04 {
		t.Errorf("KS distance for uniform sample = %v, want > 0.04", d)
	}
}

func TestKSNormalDegenerate(t *testing.T) {
	if KSNormal(nil, 0, 1) != 1 {
		t.Error("KS of empty sample should be 1")
	}
	if KSNormal([]float64{1, 2}, 0, 0) != 1 {
		t.Error("KS with zero stddev should be 1")
	}
}

func TestCoV(t *testing.T) {
	var w Welford
	for _, v := range []float64{9, 10, 11} {
		w.Add(v)
	}
	if got := w.CoV(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("CoV = %v, want 0.1", got)
	}
	var zero Welford
	if zero.CoV() != 0 {
		t.Error("CoV of empty should be 0")
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0.5, 3.2, 3.3, 9.99, 10, 42} {
		h.Add(x)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var got Histogram
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.N() != h.N() || got.NumBins() != h.NumBins() {
		t.Fatalf("round trip changed shape: %d/%d bins, %d/%d obs",
			got.NumBins(), h.NumBins(), got.N(), h.N())
	}
	gu, go_ := got.OutOfRange()
	hu, ho := h.OutOfRange()
	if gu != hu || go_ != ho {
		t.Fatalf("out-of-range counts changed: (%d,%d) vs (%d,%d)", gu, go_, hu, ho)
	}
	for i := 0; i < h.NumBins(); i++ {
		gc, gn := got.Bin(i)
		hc, hn := h.Bin(i)
		if gc != hc || gn != hn {
			t.Fatalf("bin %d changed: (%v,%d) vs (%v,%d)", i, gc, gn, hc, hn)
		}
	}
}

// TestPercentileMatchesSortReference: selection returns, bit for bit, what
// sorting a copy and interpolating returned before it — over random samples
// with heavy duplication, NaNs and infinities, already-sorted and reversed
// input (bad pivots), and p at, below and above both ends.
func TestPercentileMatchesSortReference(t *testing.T) {
	reference := func(sample []float64, p float64) float64 {
		s := append([]float64(nil), sample...)
		sort.Float64s(s)
		if p <= 0 {
			return s[0]
		}
		if p >= 100 {
			return s[len(s)-1]
		}
		rank := p / 100 * float64(len(s)-1)
		lo := int(rank)
		frac := rank - float64(lo)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	rng := rand.New(rand.NewSource(7))
	ps := []float64{-5, 0, 1e-9, 0.1, 1, 25, 50, 75, 90, 99, 99.9, 99.999999, 100, 250}
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		if trial%50 == 0 {
			n = 20000 + rng.Intn(20000)
		}
		sample := make([]float64, n)
		distinct := 1 + rng.Intn(n) // few distinct values: long runs of duplicates
		for i := range sample {
			sample[i] = float64(rng.Intn(distinct)) * 0.37
		}
		switch trial % 8 {
		case 1:
			sort.Float64s(sample)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(sample)))
		case 3:
			sample[rng.Intn(n)] = math.NaN()
			sample[rng.Intn(n)] = math.Inf(1)
			sample[rng.Intn(n)] = math.Inf(-1)
		case 4: // organ pipe: the classic bad case for median-of-three
			for i := range sample {
				sample[i] = float64(min(i, n-1-i))
			}
		}
		orig := append([]float64(nil), sample...)
		for _, p := range append(ps, rng.Float64()*100) {
			got, want := Percentile(sample, p), reference(sample, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: n=%d p=%v: Percentile = %v, sort reference %v", trial, n, p, got, want)
			}
		}
		for i := range orig {
			if math.Float64bits(orig[i]) != math.Float64bits(sample[i]) {
				t.Fatalf("trial %d: Percentile mutated its input at %d", trial, i)
			}
		}
	}
}
