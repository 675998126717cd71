// Package stats provides the measurement machinery the experiments share:
// streaming moments (Welford), time-weighted averages for queue occupancy,
// histograms, percentiles, and a normal-distribution fit with a
// Kolmogorov–Smirnov distance for the paper's Fig. 6 Gaussian claim.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"bufsim/internal/units"
)

// Welford computes streaming mean and variance in one pass, numerically
// stably. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation.
func (w *Welford) Max() float64 { return w.max }

// CoV returns the coefficient of variation (stddev / mean).
func (w *Welford) CoV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.StdDev() / math.Abs(w.mean)
}

// TimeWeighted integrates a piecewise-constant signal over simulated time:
// queue occupancy, aggregate window, outstanding packets. Call Set at every
// change; Mean gives the time average.
type TimeWeighted struct {
	last     float64
	lastAt   units.Time
	area     float64 // integral of value dt (seconds)
	span     units.Duration
	max      float64
	started  bool
	startVal float64
}

// Set records that the signal takes value v from time now onward.
func (t *TimeWeighted) Set(v float64, now units.Time) {
	if !t.started {
		t.started = true
		t.last = v
		t.lastAt = now
		t.max = v
		t.startVal = v
		return
	}
	dt := now.Sub(t.lastAt)
	if dt < 0 {
		panic("stats: TimeWeighted.Set with time going backward")
	}
	t.area += t.last * dt.Seconds()
	t.span += dt
	t.lastAt = now
	t.last = v
	if v > t.max {
		t.max = v
	}
}

// Mean returns the time-average of the signal over the observed span,
// extending the last value to now.
func (t *TimeWeighted) Mean(now units.Time) float64 {
	if !t.started {
		return 0
	}
	area := t.area + t.last*now.Sub(t.lastAt).Seconds()
	span := (t.span + now.Sub(t.lastAt)).Seconds()
	if span <= 0 {
		return t.last
	}
	return area / span
}

// Max returns the largest value observed.
func (t *TimeWeighted) Max() float64 { return t.max }

// Current returns the most recent value.
func (t *TimeWeighted) Current() float64 { return t.last }

// Histogram is a fixed-width-bin histogram over [lo, hi); observations
// outside the range land in saturating edge bins.
type Histogram struct {
	lo, hi float64
	bins   []int64
	n      int64
	under  int64
	over   int64
}

// NewHistogram returns a histogram with nbins equal bins spanning [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if hi <= lo || nbins <= 0 {
		panic(fmt.Sprintf("stats: bad histogram [%v,%v)/%d", lo, hi, nbins))
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int64, nbins)}
}

// Add incorporates one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		i := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
		if i >= len(h.bins) {
			i = len(h.bins) - 1
		}
		h.bins[i]++
	}
}

// N returns the total observation count (including out-of-range).
func (h *Histogram) N() int64 { return h.n }

// Bin returns the center and count of bin i.
func (h *Histogram) Bin(i int) (center float64, count int64) {
	w := (h.hi - h.lo) / float64(len(h.bins))
	return h.lo + (float64(i)+0.5)*w, h.bins[i]
}

// NumBins returns the bin count.
func (h *Histogram) NumBins() int { return len(h.bins) }

// OutOfRange returns the counts below lo and at-or-above hi.
func (h *Histogram) OutOfRange() (under, over int64) { return h.under, h.over }

// histogramJSON is the serialized form of a Histogram. The fields are
// unexported in Histogram to keep Add the only mutation path, but
// results embedding a histogram must survive a JSON round trip so the
// run cache can replay them bit-identically.
type histogramJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Bins  []int64 `json:"bins"`
	N     int64   `json:"n"`
	Under int64   `json:"under"`
	Over  int64   `json:"over"`
}

// MarshalJSON implements json.Marshaler.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Lo: h.lo, Hi: h.hi, Bins: h.bins, N: h.n, Under: h.under, Over: h.over})
}

// UnmarshalJSON implements json.Unmarshaler.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	h.lo, h.hi, h.bins, h.n, h.under, h.over = j.Lo, j.Hi, j.Bins, j.N, j.Under, j.Over
	return nil
}

// Density returns bin i's probability density (count / (N * binwidth)).
func (h *Histogram) Density(i int) float64 {
	if h.n == 0 {
		return 0
	}
	w := (h.hi - h.lo) / float64(len(h.bins))
	return float64(h.bins[i]) / (float64(h.n) * w)
}

// Percentile returns the p-th percentile (0 < p <= 100) of a sample, the
// value a sort followed by linear interpolation between the two bracketing
// order statistics gives, found by selection on a copy: linear in the
// sample where the sort was n log n. It returns 0 for an empty sample.
func Percentile(sample []float64, p float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]float64(nil), sample...)
	last := len(s) - 1
	if p <= 0 {
		return selectKth(s, 0)
	}
	rank := p / 100 * float64(last)
	lo := int(rank)
	frac := rank - float64(lo)
	if p >= 100 || lo >= last {
		return selectKth(s, last)
	}
	a := selectKth(s, lo)
	// Selection left nothing smaller than a behind it, so the next order
	// statistic is the least of what follows.
	b := s[lo+1]
	for _, v := range s[lo+2:] {
		if floatLess(v, b) {
			b = v
		}
	}
	return a*(1-frac) + b*frac
}

// floatLess is the order sort.Float64s uses: ascending, NaNs first.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectKth rearranges s so that s[k] holds the value a full sort would
// put there, with nothing greater before it and nothing smaller after it,
// and returns s[k]. Quickselect with a median-of-three pivot; a run of bad
// pivots (twice the depth a balanced recursion needs) hands the remaining
// range to the sort, so the worst case stays n log n.
func selectKth(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for budget := 2 * bits.Len(uint(len(s))); lo < hi; budget-- {
		if budget == 0 {
			sort.Float64s(s[lo : hi+1])
			break
		}
		mid := lo + (hi-lo)/2
		if floatLess(s[mid], s[lo]) {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if floatLess(s[hi], s[lo]) {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if floatLess(s[hi], s[mid]) {
			s[hi], s[mid] = s[mid], s[hi]
		}
		pivot := s[mid]
		i, j := lo, hi
		for i <= j {
			for floatLess(s[i], pivot) {
				i++
			}
			for floatLess(pivot, s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		// s[lo..j] <= pivot <= s[i..hi] and j < i; anything between is the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// Mean returns the arithmetic mean of a sample (0 if empty).
func Mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sample {
		sum += v
	}
	return sum / float64(len(sample))
}

// JainIndex returns Jain's fairness index (sum x)^2 / (n * sum x^2) over
// a set of per-flow allocations: 1 for perfect equality, 1/n when one
// flow takes everything. Used to quantify how evenly TCP divides the
// bottleneck as buffers shrink.
func JainIndex(alloc []float64) float64 {
	if len(alloc) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range alloc {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1 // everyone got exactly nothing: technically fair
	}
	return sum * sum / (float64(len(alloc)) * sumsq)
}

// NormalCDF is the standard normal cumulative distribution function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z with NormalCDF(z) = p, via bisection; it is
// used to translate a utilization target into a buffer size. p must be in
// (0, 1).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: NormalQuantile(%v) out of (0,1)", p))
	}
	lo, hi := -40.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if NormalCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// KSNormal returns the Kolmogorov–Smirnov distance between the empirical
// distribution of the sample and a Normal(mean, stddev): the Fig. 6
// goodness-of-fit measure. Smaller is closer; below ~0.05 the aggregate
// window is visually indistinguishable from a Gaussian.
func KSNormal(sample []float64, mean, stddev float64) float64 {
	if len(sample) == 0 || stddev <= 0 {
		return 1
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	n := float64(len(s))
	maxD := 0.0
	for i, x := range s {
		f := NormalCDF((x - mean) / stddev)
		dPlus := (float64(i)+1)/n - f
		dMinus := f - float64(i)/n
		if dPlus > maxD {
			maxD = dPlus
		}
		if dMinus > maxD {
			maxD = dMinus
		}
	}
	return maxD
}
