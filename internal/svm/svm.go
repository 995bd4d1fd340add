// Package svm implements the incremental support vector machine FIRM's
// critical component extractor uses (§3.3): a linear SVM trained with
// stochastic gradient descent on the hinge loss, preceded by an RBF kernel
// approximation via random Fourier features (Rahimi–Recht). This mirrors the
// paper's scikit-learn construction ("incremental SVM classifier implemented
// using stochastic gradient descent optimization and RBF kernel
// approximation").
package svm

import (
	"errors"
	"math"
	"math/rand"
)

// RFF maps input vectors into a D-dimensional randomized feature space in
// which inner products approximate the RBF kernel exp(-gamma*||x-y||²):
// z(x)_i = sqrt(2/D) * cos(w_i·x + b_i), w_i ~ N(0, 2*gamma*I), b_i ~ U[0,2π].
type RFF struct {
	W     [][]float64 // D × dim projection
	B     []float64   // D offsets
	Gamma float64
}

// NewRFF samples a random Fourier feature map for inputs of size dim with
// d output features, using r for reproducible sampling.
func NewRFF(r *rand.Rand, dim, d int, gamma float64) *RFF {
	if dim <= 0 || d <= 0 || gamma <= 0 {
		panic("svm: invalid RFF parameters")
	}
	rf := &RFF{W: make([][]float64, d), B: make([]float64, d), Gamma: gamma}
	sd := math.Sqrt(2 * gamma)
	for i := 0; i < d; i++ {
		rf.W[i] = make([]float64, dim)
		for j := 0; j < dim; j++ {
			rf.W[i][j] = r.NormFloat64() * sd
		}
		rf.B[i] = r.Float64() * 2 * math.Pi
	}
	return rf
}

// Dim returns the output feature dimension.
func (rf *RFF) Dim() int { return len(rf.W) }

// MapInto projects x into the randomized feature space, writing into z
// (len must be Dim()) and returning z. Scoring loops reuse one projection
// buffer instead of allocating per candidate.
func (rf *RFF) MapInto(z, x []float64) []float64 {
	d := len(rf.W)
	if len(z) != d {
		panic("svm: MapInto buffer size mismatch")
	}
	scale := math.Sqrt(2 / float64(d))
	for i := 0; i < d; i++ {
		dot := rf.B[i]
		w := rf.W[i]
		for j, xj := range x {
			dot += w[j] * xj
		}
		z[i] = scale * math.Cos(dot)
	}
	return z
}

// Config sets SVM hyperparameters.
type Config struct {
	InputDim int     // raw feature dimension (Alg. 2 uses 2: RI, CI)
	Features int     // RFF dimension (0 = linear SVM, no kernel)
	Gamma    float64 // RBF width
	LR       float64 // SGD learning rate
	Reg      float64 // L2 regularization strength (lambda)
	Seed     int64
}

// DefaultConfig mirrors a small RBF-SGDClassifier: 64 Fourier features,
// gamma 1.0, modest learning rate with L2 regularization.
func DefaultConfig() Config {
	return Config{InputDim: 2, Features: 64, Gamma: 1.0, LR: 0.05, Reg: 1e-4, Seed: 1}
}

// SVM is an online max-margin classifier: sign(w·z(x) + b).
type SVM struct {
	cfg  Config
	rff  *RFF
	w    []float64
	b    float64
	seen uint64
	// fz is Fit's RFF projection buffer. Fit mutates the model anyway;
	// Decision stays read-only (shareable) and projects into a Scorer's
	// buffer.
	fz []float64
}

// New creates an SVM per cfg.
func New(cfg Config) *SVM {
	if cfg.InputDim <= 0 {
		panic("svm: InputDim must be positive")
	}
	s := &SVM{cfg: cfg}
	dim := cfg.InputDim
	if cfg.Features > 0 {
		s.rff = NewRFF(rand.New(rand.NewSource(cfg.Seed)), cfg.InputDim, cfg.Features, cfg.Gamma)
		s.fz = make([]float64, cfg.Features)
		dim = cfg.Features
	}
	s.w = make([]float64, dim)
	return s
}

// ErrBadInput is returned for inputs whose dimension mismatches the model.
var ErrBadInput = errors.New("svm: input dimension mismatch")

// Decision returns the signed margin w·z(x)+b. Positive means "critical
// component: reprovision". It scores through a fresh Scorer, so the SVM
// stays read-only and shareable; loops that score many inputs keep a
// Scorer instead.
func (s *SVM) Decision(x []float64) (float64, error) {
	return s.NewScorer().Decision(x)
}

// margin is w·z+b for a projected input z, summed b first, then w[i]*z[i]
// by index: the one summation every score and every Fit step uses.
func (s *SVM) margin(z []float64) float64 {
	d := s.b
	for i, zi := range z {
		d += s.w[i] * zi
	}
	return d
}

// Scorer is an allocation-free scoring view over an SVM: it owns a reusable
// RFF projection buffer, so per-tick scoring loops (detect.Localizer) pay no
// garbage per candidate. A Scorer is single-goroutine state; the underlying
// SVM stays shareable read-only, and each concurrent reader makes its own
// Scorer.
type Scorer struct {
	s *SVM
	z []float64
}

// NewScorer returns a scoring view bound to s.
func (s *SVM) NewScorer() *Scorer {
	sc := &Scorer{s: s}
	if s.rff != nil {
		sc.z = make([]float64, s.rff.Dim())
	}
	return sc
}

// Decision returns the signed margin w·z(x)+b, projecting through the
// reusable buffer: no per-call allocation.
func (sc *Scorer) Decision(x []float64) (float64, error) {
	s := sc.s
	if len(x) != s.cfg.InputDim {
		return 0, ErrBadInput
	}
	z := x
	if s.rff != nil {
		z = s.rff.MapInto(sc.z, x)
	}
	return s.margin(z), nil
}

// DecisionBatch scores nb rows packed row-major in xb (len nb*InputDim)
// into out (len nb). Row i's score is bit-identical to Decision over that
// row; the projection buffer is reused across rows.
func (sc *Scorer) DecisionBatch(xb []float64, nb int, out []float64) error {
	dim := sc.s.cfg.InputDim
	if nb < 0 || len(xb) != nb*dim || len(out) != nb {
		return ErrBadInput
	}
	for i := 0; i < nb; i++ {
		d, err := sc.Decision(xb[i*dim : (i+1)*dim])
		if err != nil {
			return err
		}
		out[i] = d
	}
	return nil
}

// Fit applies one SGD step on the hinge loss for example (x, y), y ∈ {-1,+1}.
// This is the "incremental" learning path: the Extractor keeps fitting as
// labelled data arrives from anomaly-injection campaigns. It projects into
// the model's own buffer, so a warm Fit allocates nothing.
func (s *SVM) Fit(x []float64, y float64) error {
	if len(x) != s.cfg.InputDim {
		return ErrBadInput
	}
	if y != 1 && y != -1 {
		return errors.New("svm: label must be ±1")
	}
	s.seen++
	// Decaying learning rate stabilizes the incremental estimate.
	lr := s.cfg.LR / (1 + s.cfg.Reg*s.cfg.LR*float64(s.seen))
	z := x
	if s.rff != nil {
		z = s.rff.MapInto(s.fz, x)
	}
	margin := s.margin(z) * y
	// L2 shrinkage.
	for i := range s.w {
		s.w[i] -= lr * s.cfg.Reg * s.w[i]
	}
	if margin < 1 { // inside margin or misclassified → hinge gradient
		for i, zi := range z {
			s.w[i] += lr * y * zi
		}
		s.b += lr * y
	}
	return nil
}

// FitBatch runs epochs of SGD over the dataset in a deterministic shuffled
// order. Used to pre-train the Extractor before online operation.
func (s *SVM) FitBatch(xs [][]float64, ys []float64, epochs int, seed int64) error {
	if len(xs) != len(ys) {
		return errors.New("svm: xs/ys length mismatch")
	}
	r := rand.New(rand.NewSource(seed))
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for _, i := range idx {
			if err := s.Fit(xs[i], ys[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ROC computes (FPR, TPR) pairs by sweeping the decision threshold over the
// scored dataset. Points are ordered by increasing threshold and bracketed
// with the (1,1) and (0,0) endpoints, ready for stats.AUC.
func (s *SVM) ROC(xs [][]float64, ys []float64, thresholds []float64) (fpr, tpr []float64, err error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, nil, errors.New("svm: bad evaluation set")
	}
	sc := s.NewScorer()
	scores := make([]float64, len(xs))
	for i := range xs {
		scores[i], err = sc.Decision(xs[i])
		if err != nil {
			return nil, nil, err
		}
	}
	fpr = append(fpr, 1)
	tpr = append(tpr, 1)
	for _, th := range thresholds {
		var tp, fp, fn, tn int
		for i := range scores {
			pred := scores[i] > th
			actual := ys[i] > 0
			switch {
			case pred && actual:
				tp++
			case pred && !actual:
				fp++
			case !pred && actual:
				fn++
			default:
				tn++
			}
		}
		if tp+fn > 0 {
			tpr = append(tpr, float64(tp)/float64(tp+fn))
		} else {
			tpr = append(tpr, 0)
		}
		if fp+tn > 0 {
			fpr = append(fpr, float64(fp)/float64(fp+tn))
		} else {
			fpr = append(fpr, 0)
		}
	}
	fpr = append(fpr, 0)
	tpr = append(tpr, 0)
	return fpr, tpr, nil
}
