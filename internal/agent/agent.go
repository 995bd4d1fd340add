// Package agent bridges FIRM's RL Resource Estimator (§3.4) to the
// simulated cluster: it builds the Table 3 state vector (SLO violation
// ratio, workload change, request composition, per-resource utilization),
// decodes the actor's [-1,1]^5 outputs into resource limits within
// predefined bounds [Ř_i, R̂_i], and computes the reward
// r_t = α·SV_t·|R| + (1-α)·Σ_i RU_i/RLT_i.
package agent

import (
	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/telemetry"
)

// StateDim is the actor input size (Table 3 / Fig. 8: 8 inputs).
const StateDim = 8

// ActionDim is the actor output size: one limit per controlled resource.
const ActionDim = int(cluster.NumResources)

// Space bounds the action decoding for one container: limits are driven
// within [Lo, Hi] per resource (the paper's predefined lower/upper limits
// Ř_i and R̂_i), anchored at Ref — the service's reference (initial) limits.
// Decoding is piecewise linear through (-1 → Lo, 0 → Ref, +1 → Hi), so an
// untrained actor (Tanh output ≈ 0) leaves the configuration roughly at the
// status quo and mitigation behaviour must be learned.
type Space struct {
	Lo, Ref, Hi cluster.Vector
}

// SpaceFor derives a container's action space: the floor is the cluster's
// minimum limit (CPU cannot be 0), the ceiling is headroom× the reference
// limits, clamped to node capacity.
func SpaceFor(c *cluster.Container, reference cluster.Vector, minLimit cluster.Vector, headroom float64) Space {
	if headroom < 1 {
		headroom = 1
	}
	hi := reference.Scale(headroom).Min(c.Node().Capacity())
	lo := minLimit
	ref := reference
	for r := range hi {
		if hi[r] < lo[r] {
			hi[r] = lo[r]
		}
		if ref[r] < lo[r] {
			ref[r] = lo[r]
		}
		if ref[r] > hi[r] {
			ref[r] = hi[r]
		}
	}
	return Space{Lo: lo, Ref: ref, Hi: hi}
}

// Decode maps an actor output a ∈ [-1,1]^5 to resource limits.
func (s Space) Decode(a []float64) cluster.Vector {
	var out cluster.Vector
	for r := 0; r < ActionDim && r < len(a); r++ {
		x := a[r]
		if x < -1 {
			x = -1
		}
		if x > 1 {
			x = 1
		}
		if x >= 0 {
			out[r] = s.Ref[r] + x*(s.Hi[r]-s.Ref[r])
		} else {
			out[r] = s.Ref[r] + x*(s.Ref[r]-s.Lo[r])
		}
	}
	return out
}

// Encode maps limits back into [-1,1]^5 (inverse of Decode; used in tests
// and for warm-starting replay buffers from observed configurations).
func (s Space) Encode(v cluster.Vector) []float64 {
	out := make([]float64, ActionDim)
	for r := 0; r < ActionDim; r++ {
		var x float64
		switch {
		case v[r] >= s.Ref[r] && s.Hi[r] > s.Ref[r]:
			x = (v[r] - s.Ref[r]) / (s.Hi[r] - s.Ref[r])
		case v[r] < s.Ref[r] && s.Ref[r] > s.Lo[r]:
			x = (v[r] - s.Ref[r]) / (s.Ref[r] - s.Lo[r])
		default:
			x = 0
		}
		if x < -1 {
			x = -1
		}
		if x > 1 {
			x = 1
		}
		out[r] = x
	}
	return out
}

// StateBuilder assembles the RL state from telemetry.
type StateBuilder struct {
	Col   *telemetry.Collector
	Meter *telemetry.Meter
	SLO   sim.Time
}

// SV computes the SLO violation ratio for the current tail latency:
// SLO_latency / current_latency when the instance is a culprit (so SV < 1
// during violations), 1 when there is no violation signal (§3.4).
func (b *StateBuilder) SV(currentP99 sim.Time, culprit bool) float64 {
	if !culprit || currentP99 <= 0 {
		return 1
	}
	sv := float64(b.SLO) / float64(currentP99)
	if sv > 1 {
		sv = 1
	}
	return sv
}

// State builds the 8-dimensional state vector for an instance:
// [SV, WC, RC, RU_cpu, RU_membw, RU_llc, RU_io, RU_net].
func (b *StateBuilder) State(instance uint32, currentP99 sim.Time, culprit bool) []float64 {
	s := make([]float64, StateDim)
	s[0] = b.SV(currentP99, culprit)
	wc := b.Meter.WorkloadChange()
	if wc > 3 {
		wc = 3
	}
	s[1] = wc
	s[2] = b.Meter.CompositionCode(8)
	if latest, ok := b.Col.Latest(instance); ok {
		util := latest.Util()
		for r := 0; r < int(cluster.NumResources); r++ {
			u := util[r]
			if u > 2 {
				u = 2
			}
			s[3+r] = u
		}
	}
	return s
}

// GuidedAction is the guided mitigation rule: raise to maximum (+1) every
// resource whose utilization feature st[3+r] reports oversubscription
// (≥ 1.2) and hold the rest at the reference (0). The training controller
// substitutes it for exploration, and the actor is behaviour-cloned from it.
func GuidedAction(st []float64) []float64 {
	act := make([]float64, ActionDim)
	for r := range act {
		if st[3+r] >= 1.2 {
			act[r] = 1
		}
	}
	return act
}

// Reward computes r_t = α·SV·|R| + (1-α)·Σ_i score(RU_i/RLT_i). The paper's
// second term is the raw utilization ratio; here the per-resource score is
// hump-shaped — rising to 1 at full utilization, then falling back to 0 at
// 2× oversubscription — because demand above the limit is contention (queue
// growth, drops), not efficiency, and must never pay. Without this shaping
// a policy can farm utilization reward by starving a container.
func Reward(sv float64, util cluster.Vector, alpha float64) float64 {
	var sum float64
	for r := 0; r < int(cluster.NumResources); r++ {
		sum += utilScore(util[r])
	}
	return alpha*sv*float64(cluster.NumResources) + (1-alpha)*sum
}

// utilScore maps a utilization ratio to its reward contribution.
func utilScore(u float64) float64 {
	switch {
	case u <= 0:
		return 0
	case u <= 1:
		return u
	case u < 2:
		return 2 - u
	default:
		return 0
	}
}
