package workload

import (
	"fmt"
	"math"
	"sort"

	"firm/internal/sim"
)

// This file holds the heavy-traffic workload models and the pattern algebra
// the web-scale sweeps compose them with: Sum and Scaled combinators,
// deterministic flash crowds, and seeded per-user session streams layered
// on any base pattern. Every model implements Pattern with an exact finite
// MaxRate, so all of them drive the generator's thinning sampler without
// clipping.

// Sum superimposes patterns: its rate is the sum of the parts' rates.
// Superposition of independent Poisson processes is Poisson at the summed
// intensity, so Sum models independent traffic sources sharing a front end
// (organic diurnal load + a flash crowd + session-driven users).
type Sum []Pattern

// Rate implements Pattern.
func (s Sum) Rate(at sim.Time) float64 {
	var r float64
	for _, p := range s {
		r += p.Rate(at)
	}
	return r
}

// MaxRate implements Pattern. The sum of the parts' bounds is a valid
// (if not always tight) bound on the summed rate.
func (s Sum) MaxRate() float64 {
	var r float64
	for _, p := range s {
		r += p.MaxRate()
	}
	return r
}

// Scaled multiplies a pattern's rate by a constant factor K — the knob a
// sweep turns to push one traffic shape from steady RPS toward
// millions-of-users surge without redefining the shape.
//
// Degenerate-parameter rule: a negative or NaN K clamps to zero.
type Scaled struct {
	P Pattern
	K float64
}

func (s Scaled) k() float64 {
	if s.K > 0 {
		return s.K
	}
	return 0
}

// Rate implements Pattern.
func (s Scaled) Rate(at sim.Time) float64 { return s.k() * s.P.Rate(at) }

// MaxRate implements Pattern.
func (s Scaled) MaxRate() float64 { return s.k() * s.P.MaxRate() }

// FlashCrowd superimposes one surge on a base pattern: quiet until Start,
// a linear ramp to +Peak over RampUp (the front of the crowd arriving), a
// plateau for Hold, then a linear decay back to the base over Decay. The
// steep front is exactly the shape the stale-rate sampler clipped and the
// thinning sampler tracks.
//
// Degenerate-parameter rules: non-positive RampUp is a step to the plateau;
// non-positive Hold is a zero-length plateau; non-positive Decay is a step
// back to the base. Negative Peak clamps to zero.
type FlashCrowd struct {
	Base   Pattern
	Peak   float64  // added RPS at the crest
	Start  sim.Time // surge onset
	RampUp sim.Time // time from onset to crest
	Hold   sim.Time // time spent at the crest
	Decay  sim.Time // time from end of plateau back to base
}

func (f FlashCrowd) peak() float64 { return math.Max(f.Peak, 0) }

// surge returns the crowd's added rate at time at.
func (f FlashCrowd) surge(at sim.Time) float64 {
	if at < f.Start {
		return 0
	}
	t := at - f.Start
	if f.RampUp > 0 {
		if t < f.RampUp {
			return f.peak() * float64(t) / float64(f.RampUp)
		}
		t -= f.RampUp
	}
	if f.Hold > 0 {
		if t < f.Hold {
			return f.peak()
		}
		t -= f.Hold
	}
	if f.Decay > 0 && t < f.Decay {
		return f.peak() * (1 - float64(t)/float64(f.Decay))
	}
	if f.RampUp <= 0 && f.Hold <= 0 && f.Decay <= 0 && t == 0 {
		return f.peak() // zero-length crowd: a single instant at the crest
	}
	return 0
}

// Rate implements Pattern.
func (f FlashCrowd) Rate(at sim.Time) float64 { return f.Base.Rate(at) + f.surge(at) }

// MaxRate implements Pattern.
func (f FlashCrowd) MaxRate() float64 { return f.Base.MaxRate() + f.peak() }

// Sessions models per-user session traffic: users arrive as a Poisson
// process whose intensity is the Users pattern (users/second), and each
// user issues PerUserRPS requests/second for SessionLen before leaving.
// The aggregate request intensity is therefore PerUserRPS × (number of
// sessions active at t) — bursty in exactly the way per-user traffic is,
// because user arrivals cluster.
//
// The user arrival stream is materialized at construction, deterministically
// from the seed (by the same thinning the generator uses), and folded into
// a step function over session start/end change points; Rate is then an
// O(log n) binary search and MaxRate is the exact maximum step. Beyond
// Horizon no new users arrive (rate decays to zero as the last sessions
// end), so size Horizon to cover the run.
type Sessions struct {
	PerUserRPS float64
	SessionLen sim.Time
	Horizon    sim.Time

	steps []sessionStep // change points, increasing in at
	max   float64
}

// sessionStep is the aggregate rate from at (inclusive) onward.
type sessionStep struct {
	at   sim.Time
	rate float64
}

// NewSessions materializes a session stream: users arrive at the users
// pattern's intensity over [0, horizon], each contributing perUserRPS for
// sessionLen. The stream is deterministic in (users, perUserRPS,
// sessionLen, horizon, seed).
func NewSessions(users Pattern, perUserRPS float64, sessionLen, horizon sim.Time, seed int64) (*Sessions, error) {
	if users == nil {
		return nil, fmt.Errorf("workload: NewSessions requires a user-arrival pattern")
	}
	if perUserRPS <= 0 || math.IsNaN(perUserRPS) {
		return nil, fmt.Errorf("workload: NewSessions per-user RPS must be positive, got %g", perUserRPS)
	}
	if sessionLen <= 0 {
		return nil, fmt.Errorf("workload: NewSessions session length must be positive, got %v", sessionLen)
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: NewSessions horizon must be positive, got %v", horizon)
	}
	bound := users.MaxRate()
	if !(bound > 0) {
		return nil, fmt.Errorf("workload: NewSessions user pattern has zero rate bound")
	}
	s := &Sessions{PerUserRPS: perUserRPS, SessionLen: sessionLen, Horizon: horizon}

	// Thin user arrivals over [0, horizon].
	r := sim.Stream(seed, "workload-sessions")
	type edge struct {
		at    sim.Time
		delta float64
	}
	var edges []edge
	at := sim.Time(0)
	for {
		gap := sim.Exponential(r, sim.FromSeconds(1/bound))
		if gap < 1 {
			gap = 1
		}
		at += gap
		if at >= horizon {
			break
		}
		if r.Float64()*bound < users.Rate(at) {
			edges = append(edges, edge{at, perUserRPS}, edge{at + sessionLen, -perUserRPS})
		}
	}
	// Fold edges into a step function. Session ends at +sessionLen offsets
	// interleave with later starts, so sort the merged edge list (stable
	// tie-break on insertion order is irrelevant: coincident edges sum).
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var rate float64
	for i := 0; i < len(edges); {
		j := i
		for j < len(edges) && edges[j].at == edges[i].at {
			rate += edges[j].delta
			j++
		}
		// Clamp accumulated float error: the true rate is a sum of equal
		// positive terms, so a tiny negative residue is noise.
		if rate < 0 {
			rate = 0
		}
		s.steps = append(s.steps, sessionStep{at: edges[i].at, rate: rate})
		if rate > s.max {
			s.max = rate
		}
		i = j
	}
	return s, nil
}

// Rate implements Pattern.
func (s *Sessions) Rate(at sim.Time) float64 {
	// Last step with step.at <= at.
	i := sort.Search(len(s.steps), func(i int) bool { return s.steps[i].at > at })
	if i == 0 {
		return 0
	}
	return s.steps[i-1].rate
}

// MaxRate implements Pattern: the exact maximum of the materialized step
// function.
func (s *Sessions) MaxRate() float64 { return s.max }
