// Package stats provides the statistical primitives used throughout the
// FIRM reproduction: percentiles, batch and over a sliding window, Pearson
// correlation (the paper's "relative importance" metric, Alg. 2), moving
// averages for RL reward curves, and bootstrap confidence intervals for the
// Fig. 5 error bars.
package stats

import (
	"cmp"
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by summaries that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks, matching numpy.percentile's default.
// xs is not modified: PercentileSelect runs on a copy. NaN in, NaN out — a
// NaN p, or a sample containing NaN: a NaN has no place in an order, so any
// rank statistic over a NaN-polluted sample would silently report a
// corrupted value (a P99 could come back as whatever landed at the rank).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) || hasNaN(xs) {
		return math.NaN()
	}
	return PercentileSelect(append([]float64(nil), xs...), p)
}

// PercentileSelect is Percentile without the copy: it reorders xs in place
// (a partial sort around the interpolation ranks) instead of sorting a copy
// of it, in expected linear time. The ranks follow one total order, numeric
// with -0 before +0, so the result is a function of the multiset alone and
// bit-identical to indexing a slice sorted in that order.
//
//firmvet:noalloc
func PercentileSelect(xs []float64, p float64) float64 {
	if len(xs) == 0 || math.IsNaN(p) || hasNaN(xs) {
		return math.NaN()
	}
	lo, hi, frac := percentileRank(len(xs), p)
	selectRank(xs, lo)
	if lo == hi {
		return xs[lo]
	}
	// hi == lo+1, and everything right of lo ranks at or after it: the
	// next order statistic is their minimum.
	next := xs[hi]
	for _, x := range xs[hi+1:] {
		if orderKey(x) < orderKey(next) {
			next = x
		}
	}
	return xs[lo]*(1-frac) + next*frac
}

// hasNaN reports whether xs contains a NaN (rank statistics are undefined
// on such samples).
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// percentileSorted is the p-th percentile of an ascending, NaN-free slice.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	lo, hi, frac := percentileRank(len(s), p)
	if lo == hi {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[hi]*frac
}

// percentileRank maps a non-NaN p to the closest ranks lo <= hi of a sample
// of n and the weight frac that linear interpolation gives rank hi.
func percentileRank(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// orderKey maps a NaN-free float to an integer whose order is the total
// order selection ranks by: numeric, with -0 before +0. A negative float's
// magnitude bits are flipped, so larger magnitudes sort lower, and -0 lands
// just below +0; two floats with equal keys have the same bits.
func orderKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	return b ^ int64(uint64(b>>63)>>1)
}

// selectRank reorders xs so that xs[k] holds the value of rank k in the
// orderKey order, everything left of k ranks at or before it and everything
// right of it at or after it. It is quickselect with a median-of-three
// pivot and a three-way partition, so runs of ties cost one pass; a range
// that has not shrunk within 2·log2(n) partitions is sorted instead, which
// bounds the worst case at O(n log n).
//
//firmvet:noalloc
func selectRank(xs []float64, k int) {
	lo, hi := 0, len(xs) // the rank-k value lies in xs[lo:hi]
	for budget := 2 * bits.Len(uint(len(xs))); hi-lo > 12; budget-- {
		if budget == 0 {
			slices.SortFunc(xs[lo:hi], compareTotal)
			return
		}
		// The pivot is the median of three keys.
		a, pivot, c := orderKey(xs[lo]), orderKey(xs[lo+(hi-lo)/2]), orderKey(xs[hi-1])
		if pivot < a {
			a, pivot = pivot, a
		}
		pivot = max(a, min(pivot, c))
		// Dijkstra's three-way partition: [lo,lt) before the pivot,
		// [lt,i) equal to it, (gt,hi) after it.
		lt, i, gt := lo, lo, hi-1
		for i <= gt {
			x := xs[i]
			switch key := orderKey(x); {
			case key < pivot:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case key > pivot:
				xs[gt], xs[i] = x, xs[gt]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k > gt:
			lo = gt + 1
		default:
			return
		}
	}
	// Insertion sort finishes a short range.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && orderKey(xs[j]) < orderKey(xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// compareTotal is the orderKey order as a three-way comparison.
func compareTotal(a, b float64) int { return cmp.Compare(orderKey(a), orderKey(b)) }

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Pearson computes the Pearson correlation coefficient between xs and ys.
// The paper uses PCC(Ti, TCP) as the per-critical-path "relative importance"
// of microservice i (variance explained, Alg. 2 line 8). Returns 0 when
// either input is constant (no linear relationship measurable).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson requires equal-length samples")
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// MovingAvg is a windowed moving average, used to smooth RL reward curves
// (Fig. 11a plots the moving average of episode rewards).
type MovingAvg struct {
	window []float64
	size   int
	sum    float64
	pos    int
	full   bool
}

// NewMovingAvg creates a moving average over the given window size.
func NewMovingAvg(size int) *MovingAvg {
	if size <= 0 {
		panic("stats: moving average window must be positive")
	}
	return &MovingAvg{window: make([]float64, size), size: size}
}

// Add incorporates x and returns the current average.
func (m *MovingAvg) Add(x float64) float64 {
	if m.full {
		m.sum -= m.window[m.pos]
	}
	m.window[m.pos] = x
	m.sum += x
	m.pos++
	if m.pos == m.size {
		m.pos = 0
		m.full = true
	}
	return m.Value()
}

// Value returns the current average (NaN before any Add).
func (m *MovingAvg) Value() float64 {
	n := m.pos
	if m.full {
		n = m.size
	}
	if n == 0 {
		return math.NaN()
	}
	return m.sum / float64(n)
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// median of xs at the given confidence level (e.g. 0.95), using iters
// resamples. rnd must be a deterministic source (e.g. sim.Stream). Fig. 5's
// error bars are 95% CIs on median latencies.
func BootstrapCI(xs []float64, confidence float64, iters int, rnd interface{ Intn(int) int }) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if confidence <= 0 || confidence >= 1 {
		return 0, 0, errors.New("stats: confidence must be in (0,1)")
	}
	medians := make([]float64, iters)
	resample := make([]float64, len(xs))
	for i := 0; i < iters; i++ {
		for j := range resample {
			resample[j] = xs[rnd.Intn(len(xs))]
		}
		medians[i] = Median(resample)
	}
	alpha := (1 - confidence) / 2
	return Percentile(medians, alpha*100), Percentile(medians, (1-alpha)*100), nil
}

// AUC computes the area under a ROC curve given by (fpr, tpr) points using
// trapezoidal integration after sorting by FPR. Used by the Fig. 9(a)
// localization-accuracy experiment (paper reports average AUC = 0.978).
func AUC(fpr, tpr []float64) (float64, error) {
	if len(fpr) != len(tpr) {
		return 0, errors.New("stats: AUC requires equal-length fpr/tpr")
	}
	if len(fpr) < 2 {
		return 0, errors.New("stats: AUC requires at least two points")
	}
	type pt struct{ x, y float64 }
	pts := make([]pt, len(fpr))
	for i := range fpr {
		pts[i] = pt{fpr[i], tpr[i]}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].x != pts[j].x {
			return pts[i].x < pts[j].x
		}
		return pts[i].y < pts[j].y
	})
	var area float64
	for i := 1; i < len(pts); i++ {
		area += (pts[i].x - pts[i-1].x) * (pts[i].y + pts[i-1].y) / 2
	}
	return area, nil
}
