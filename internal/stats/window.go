package stats

import (
	"math"
	"sort"
)

// Window is a sliding-window multiset of float64 observations kept as one
// sorted slice: Add and Remove are a binary search plus a copy that shifts
// the tail by one, Percentile indexes the slice. It exists for the
// controller's per-tick tail-latency measurement (detect.Monitor, its only
// user): the batch path re-copies and re-sorts the whole window every tick,
// while a Window is maintained as traces complete and expire.
//
// It is sized for the window the controller holds, the end-to-end latency
// of every non-dropped trace of the last core.Window (2 s): at most 674
// observations on the benchmark's firm-loop (250 requests/s). At those
// sizes shifting a few KB beats walking a tree. One evict + insert + P99
// cycle at steady state, this slice against the pooled treap it replaced,
// ns:
//
//	W         64    256   1024   4096   16384
//	slice     98    140    288    730    2800
//	treap    233    292    364    479     655
//
// The O(W) shift loses to the tree past W ≈ 2–3 k, over 1,000 traces a
// second. No workload is on that side of the crossover, so there is one
// path and no size switch. (detect.Localizer's per-instance span windows
// used to be Windows too; it now keeps one observation log and selects its
// percentiles at query time, see stats.PercentileSelect.)
//
// Percentile reproduces the batch Percentile bit for bit for the same
// multiset, NaN semantics included: a window holding any NaN, or a NaN p,
// yields NaN. NaNs have no place in an order, so they are only counted.
// Once the slice has grown to the working-set size no operation allocates.
type Window struct {
	xs  []float64 // ascending, NaN-free
	nan int       // NaN observations
}

// NewWindow returns an empty window. The capacity hint presizes the slice so
// the steady state is reached without growth.
func NewWindow(capHint int) *Window {
	return &Window{xs: make([]float64, 0, max(capHint, 0))}
}

// Reset empties the window, keeping its storage.
func (w *Window) Reset() {
	w.xs, w.nan = w.xs[:0], 0
}

// Len returns the number of observations currently in the window,
// including NaNs.
func (w *Window) Len() int { return len(w.xs) + w.nan }

// Add inserts one observation.
//
//firmvet:noalloc
func (w *Window) Add(x float64) {
	if math.IsNaN(x) {
		w.nan++
		return
	}
	i := sort.SearchFloat64s(w.xs, x)
	w.xs = append(w.xs, 0)
	copy(w.xs[i+1:], w.xs[i:])
	w.xs[i] = x
}

// Remove evicts one occurrence of x and reports whether it was present.
// Removing a NaN evicts one NaN observation.
//
//firmvet:noalloc
func (w *Window) Remove(x float64) bool {
	if math.IsNaN(x) {
		if w.nan == 0 {
			return false
		}
		w.nan--
		return true
	}
	i := sort.SearchFloat64s(w.xs, x)
	if i == len(w.xs) || w.xs[i] != x {
		return false
	}
	copy(w.xs[i:], w.xs[i+1:])
	w.xs = w.xs[:len(w.xs)-1]
	return true
}

// Percentile returns the p-th percentile (p in [0,100]) of the windowed
// multiset with linear interpolation between closest ranks — bit-identical
// to Percentile over a slice holding the same observations: an empty or
// NaN-containing window, or a NaN p, yields NaN.
//
//firmvet:noalloc
func (w *Window) Percentile(p float64) float64 {
	if w.nan > 0 {
		return math.NaN()
	}
	return percentileSorted(w.xs, p)
}
