// Package detect implements FIRM's critical component extractor (§3.3,
// Alg. 2): given a window of execution history graphs, it determines which
// microservice instances on (or behind) the critical path are likely causes
// of SLO violations.
//
// Two per-instance features drive the binary decision:
//
//   - Relative importance (RI): the Pearson correlation between the
//     instance's span latency and the end-to-end CP latency — how much of
//     the CP's variance the instance explains.
//   - Congestion intensity (CI): the instance's 99th-percentile span latency
//     divided by its median — tail amplification in its request queue.
//
// The (RI, CI) pair feeds an incremental SVM (internal/svm) whose positive
// class means "reprovision this instance" (Alg. 2 line 10).
//
// Localizer is the one implementation of Alg. 2. The controller keeps one
// attached to its trace store and rescores the mirrored window on each
// violated tick; Extractor.Candidates folds a selected window through a
// fresh one, which is how the localization experiments score the code the
// controller acts on.
package detect

import (
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/svm"
	"firm/internal/trace"
)

const (
	// minSamples is the minimum number of spans an instance needs in the
	// window before it can be scored (percentiles are meaningless below it).
	minSamples = 8
	// CIScale divides CI before it reaches the SVM so both features are
	// O(1); the same scaling must be used in training and inference.
	CIScale = 5
)

// Config tunes the extractor.
type Config struct {
	// IncludeBackground scores instances that appear only in background
	// spans (§3.2: background workflows may still be culprits).
	IncludeBackground bool
}

// DefaultConfig returns the extractor configuration used in experiments.
func DefaultConfig() Config {
	return Config{IncludeBackground: true}
}

// Candidate is one scored microservice instance, named by the IDs its spans
// carried (cluster.Container.ID, cluster.ReplicaSet.ID). Candidate lists are
// ordered by instance name.
type Candidate struct {
	Instance uint32
	Service  uint32
	RI       float64 // relative importance (PCC with CP latency)
	CI       float64 // congestion intensity (T99/T50)
	Score    float64 // SVM margin; >0 → critical
	Critical bool
}

// Extractor detects SLO violations and localizes culprit instances.
type Extractor struct {
	cfg Config
	svm *svm.SVM
}

// New creates an extractor around a (possibly pre-trained) SVM.
func New(cfg Config, model *svm.SVM) *Extractor {
	return &Extractor{cfg: cfg, svm: model}
}

// SVM exposes the underlying model (for online Fit during training
// campaigns and threshold sweeps in the ROC experiment).
func (e *Extractor) SVM() *svm.SVM { return e.svm }

// Violated reports whether the window's tail latency breaches the SLO:
// P99(end-to-end) > SLO, or any request was dropped.
func Violated(traces []*trace.Trace, slo sim.Time) bool {
	var lats []float64
	for _, t := range traces {
		if t.Dropped {
			return true
		}
		lats = append(lats, t.Latency().Millis())
	}
	if len(lats) == 0 {
		return false
	}
	return stats.Percentile(lats, 99) > slo.Millis()
}

// featVec maps a candidate to the SVM input space.
func (e *Extractor) featVec(c Candidate) []float64 {
	return []float64{c.RI, c.CI / CIScale}
}

// Candidates runs Alg. 2 over a window: score every instance and mark those
// the SVM classifies as needing reprovisioning. It is a one-shot fold
// through a fresh Localizer — the same code the controller runs
// incrementally — so the returned slice is the caller's.
func (e *Extractor) Candidates(traces []*trace.Trace) []Candidate {
	l := NewLocalizer(e, len(traces))
	for _, t := range traces {
		l.TraceStored(t)
	}
	return l.Candidates()
}

// Train applies one online SVM update for a candidate with ground-truth
// label (true = the instance was under injected contention). This is how
// injection campaigns generate training data (§3.6).
func (e *Extractor) Train(c Candidate, culprit bool) error {
	y := -1.0
	if culprit {
		y = 1.0
	}
	return e.svm.Fit(e.featVec(c), y)
}

// Pretrain bootstraps the SVM with the structural prior the paper's
// features encode: instances with high congestion intensity whose latency
// strongly correlates with CP latency are culprits; low-CI or uncorrelated
// instances are not. Synthetic samples are drawn around those regimes so
// that the extractor is usable before any campaign data arrives.
func (e *Extractor) Pretrain(seed int64, n int) error {
	r := sim.Stream(seed, "svm-pretrain")
	for i := 0; i < n; i++ {
		culprit := r.Intn(2) == 1
		var ri, ci float64
		if culprit {
			ri = sim.NormalClamped(r, 0.75, 0.15, -1, 1)
			ci = sim.NormalClamped(r, 8, 3, 1, 40)
		} else {
			ri = sim.NormalClamped(r, 0.15, 0.25, -1, 1)
			ci = sim.NormalClamped(r, 1.8, 0.8, 1, 40)
		}
		if err := e.Train(Candidate{RI: ri, CI: ci}, culprit); err != nil {
			return err
		}
	}
	return nil
}
