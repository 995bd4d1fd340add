// Package stats provides the statistical primitives used throughout the
// FIRM reproduction: percentiles, batch and over a sliding window, Pearson
// correlation (the paper's "relative importance" metric, Alg. 2), moving
// averages for RL reward curves, and bootstrap confidence intervals for the
// Fig. 5 error bars.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by summaries that require at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks, matching numpy.percentile's default.
// xs is not modified. A sample containing NaN yields NaN: sort.Float64s
// places NaNs at unspecified positions, so any rank statistic over a
// NaN-polluted sample would silently report a corrupted value (a P99 could
// come back as whatever landed at the rank) — NaN in, NaN out instead.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 || hasNaN(xs) {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
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

func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

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
