package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba) — the default for the
// DDPG actor/critic updates.
type Adam struct {
	net      *Net
	lr       float64
	beta1    float64
	beta2    float64
	eps      float64
	t        int
	m, v     [][]float64
	gradClip float64 // max L2 norm of the full gradient (0 = off)
	// params/grads are cached Params views: layer storage is never
	// reallocated, so capturing them once keeps Step allocation-free.
	params, grads [][]float64
}

// NewAdam creates an Adam optimizer with standard betas.
func NewAdam(net *Net, lr float64) *Adam {
	a := &Adam{net: net, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.params, a.grads = net.Params()
	for _, p := range a.params {
		a.m = append(a.m, make([]float64, len(p)))
		a.v = append(a.v, make([]float64, len(p)))
	}
	return a
}

// SetGradClip enables global-norm gradient clipping (stabilizes early DDPG
// training when critic targets are noisy).
func (a *Adam) SetGradClip(maxNorm float64) { a.gradClip = maxNorm }

// Step applies one update and leaves gradients untouched (callers ZeroGrad
// explicitly, matching the usual training-loop shape).
func (a *Adam) Step() {
	params, grads := a.params, a.grads
	scale := 1.0
	if a.gradClip > 0 {
		var norm2 float64
		for _, g := range grads {
			for _, x := range g {
				norm2 += x * x
			}
		}
		if n := math.Sqrt(norm2); n > a.gradClip {
			scale = a.gradClip / n
		}
	}
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range params {
		g := grads[i]
		m := a.m[i]
		v := a.v[i]
		for j := range p {
			gj := g[j] * scale
			m[j] = a.beta1*m[j] + (1-a.beta1)*gj
			v[j] = a.beta2*v[j] + (1-a.beta2)*gj*gj
			p[j] -= a.lr * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.eps)
		}
	}
}
