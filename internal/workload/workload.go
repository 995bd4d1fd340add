// Package workload provides the open-loop load generators used in the
// paper's evaluation (§4.1): constant, diurnal, exponentially distributed,
// and spiked request arrival patterns (the wrk2-style driver), with request
// types drawn from each application's endpoint mix — plus the heavy-traffic
// models the web-scale sweeps need (flash crowds, per-user session streams,
// and a composable pattern algebra; see patterns.go).
//
// Arrivals are a non-homogeneous Poisson process realized by Lewis–Shedler
// thinning: candidate arrivals are drawn at a pattern-supplied upper bound
// (MaxRate) and accepted with probability Rate(t)/bound, so the realized
// process tracks fast-varying intensities (steep ramps, flash-crowd fronts)
// exactly instead of lagging one inter-arrival gap behind them. Constant
// patterns keep the direct exponential sampler — for a fixed rate the two
// are the same process, and the fast path pins the historical byte-exact
// arrival sequences the experiment goldens encode.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"firm/internal/app"
	"firm/internal/sim"
	"firm/internal/telemetry"
)

// Pattern yields the target arrival rate (requests/second) at a given time.
//
// Rate must be non-negative and bounded above by MaxRate at every instant;
// the generator thins candidate arrivals drawn at MaxRate down to Rate, so
// a pattern whose Rate exceeds its own MaxRate is silently clipped to the
// bound. Implementations with degenerate parameters clamp to a documented
// rule rather than returning NaN (a NaN rate would silently poison the
// arrival process).
type Pattern interface {
	Rate(at sim.Time) float64
	// MaxRate returns a finite upper bound on Rate over all times. It is
	// the thinning envelope: candidate arrivals are proposed at this rate.
	// A tight bound costs nothing but rejected proposals; a bound below
	// the true peak clips the realized process.
	MaxRate() float64
}

// Constant is a fixed-rate pattern.
type Constant struct{ RPS float64 }

// Rate implements Pattern. A negative or non-finite RPS clamps to zero.
func (c Constant) Rate(sim.Time) float64 { return c.MaxRate() }

// MaxRate implements Pattern.
func (c Constant) MaxRate() float64 {
	if !(c.RPS > 0) || math.IsInf(c.RPS, 1) { // NaN fails the comparison
		return 0
	}
	return c.RPS
}

// Diurnal models a day/night cycle: Base + Amplitude*sin(2πt/Period),
// clamped at zero. The paper compresses diurnal patterns into experiment
// timescales; Period is configurable for the same reason.
//
// Degenerate-parameter rule: a non-positive Period disables the oscillation
// and Rate returns max(Base, 0) — never NaN.
type Diurnal struct {
	Base      float64
	Amplitude float64
	Period    sim.Time
}

// Rate implements Pattern.
func (d Diurnal) Rate(at sim.Time) float64 {
	if d.Period <= 0 {
		return math.Max(d.Base, 0)
	}
	r := d.Base + d.Amplitude*math.Sin(2*math.Pi*float64(at)/float64(d.Period))
	if r < 0 {
		return 0
	}
	return r
}

// MaxRate implements Pattern.
func (d Diurnal) MaxRate() float64 {
	if d.Period <= 0 {
		return math.Max(d.Base, 0)
	}
	return math.Max(d.Base+math.Abs(d.Amplitude), 0)
}

// Ramp linearly interpolates from From to To over Duration, then holds.
// Used by load sweeps (Fig. 5).
//
// Degenerate-parameter rule: a non-positive Duration is an immediate step
// to To — never NaN (the at >= Duration hold branch already covers it, but
// the rule is now explicit and tested).
type Ramp struct {
	From, To float64
	Duration sim.Time
}

// Rate implements Pattern.
func (r Ramp) Rate(at sim.Time) float64 {
	if r.Duration <= 0 || at >= r.Duration {
		return math.Max(r.To, 0)
	}
	f := float64(at) / float64(r.Duration)
	return math.Max(r.From+f*(r.To-r.From), 0)
}

// MaxRate implements Pattern.
func (r Ramp) MaxRate() float64 { return math.Max(math.Max(r.From, r.To), 0) }

// Spikes overlays stochastic square spikes on a base pattern: every
// MeanGap (exponential), rate multiplies by Factor for SpikeLen.
type Spikes struct {
	Base     Pattern
	Factor   float64
	MeanGap  sim.Time
	SpikeLen sim.Time

	// spike windows are materialized deterministically from seed at
	// construction, sorted and non-overlapping by construction.
	windows []window
}

type window struct{ lo, hi sim.Time }

// NewSpikes precomputes spike windows covering [0, horizon]. The parameters
// are validated: MeanGap must be positive and SpikeLen non-negative (a
// non-positive MeanGap with a zero SpikeLen used to hang the constructor —
// Exponential returns 0 and the window cursor never advanced), Factor must
// be non-negative, and horizon non-negative.
func NewSpikes(base Pattern, factor float64, meanGap, spikeLen, horizon sim.Time, seed int64) (*Spikes, error) {
	if base == nil {
		return nil, fmt.Errorf("workload: NewSpikes requires a base pattern")
	}
	if factor < 0 || math.IsNaN(factor) {
		return nil, fmt.Errorf("workload: NewSpikes factor must be >= 0, got %g", factor)
	}
	if meanGap <= 0 {
		return nil, fmt.Errorf("workload: NewSpikes mean gap must be positive, got %v", meanGap)
	}
	if spikeLen < 0 {
		return nil, fmt.Errorf("workload: NewSpikes spike length must be >= 0, got %v", spikeLen)
	}
	if horizon < 0 {
		return nil, fmt.Errorf("workload: NewSpikes horizon must be >= 0, got %v", horizon)
	}
	s := &Spikes{Base: base, Factor: factor, MeanGap: meanGap, SpikeLen: spikeLen}
	r := sim.Stream(seed, "workload-spikes")
	at := sim.Time(0)
	for at < horizon {
		gap := sim.Exponential(r, meanGap)
		if gap < 1 {
			gap = 1 // a zero draw must still advance the cursor
		}
		at += gap
		s.windows = append(s.windows, window{lo: at, hi: at + spikeLen})
		at += spikeLen
	}
	return s, nil
}

// Rate implements Pattern. The window lookup is a binary search over the
// sorted non-overlapping windows (the linear scan it replaces made every
// rate query O(#windows), which the thinning sampler multiplies).
func (s *Spikes) Rate(at sim.Time) float64 {
	r := s.Base.Rate(at)
	// First window ending after at; it is the only one that can contain at.
	i := sort.Search(len(s.windows), func(i int) bool { return s.windows[i].hi > at })
	if i < len(s.windows) && at >= s.windows[i].lo {
		return r * s.Factor
	}
	return r
}

// MaxRate implements Pattern. A Factor below 1 attenuates inside windows,
// so the bound is the base's.
func (s *Spikes) MaxRate() float64 {
	return s.Base.MaxRate() * math.Max(s.Factor, 1)
}

// Generator drives an application with open-loop arrivals: a non-homogeneous
// Poisson process at the pattern's instantaneous rate, independent of
// response times — exactly the property that lets latency spikes build
// queues. Time-varying patterns are realized by Lewis–Shedler thinning
// against Pattern.MaxRate; Constant patterns use the direct exponential
// sampler (identical process, historical byte-exact arrival sequence).
//
// Everything the generator schedules — a Constant arrival, a thinned
// candidate, an idle poll, a spike's expiry — is a genEvent: a pooled record
// that is its own engine event and carries the epoch it was scheduled in, so
// an arrival costs no closure and, once the pool is warm, no allocation.
type Generator struct {
	App     Target
	Pattern Pattern
	Meter   *telemetry.Meter // optional; records arrivals per type

	eng *sim.Engine
	rng *rand.Rand

	// spikeMul is a transient rate multiplier driven by the workload-
	// variation anomaly (injector SpikeHook).
	spikeMul float64
	// epoch invalidates in-flight thinning proposals when the effective
	// rate bound changes (Spike start/end, Start): the pending candidate
	// was drawn against a stale bound, so it is abandoned and the process
	// restarts from now — memorylessness makes the restart exact. Start
	// also retires a Constant pattern's pending arrival this way.
	epoch     uint64
	stopped   bool
	Submitted uint64
	// free recycles fired events; it holds at most the most events ever
	// pending at once (the live one plus stale ones and spike expiries).
	free []*genEvent
}

// Target is the submission surface a generator drives: the single-engine
// *app.App or a sharded app. Engine supplies the clock the arrival process
// is scheduled on — for a sharded target that is the home shard, which owns
// request admission.
type Target interface {
	Engine() *sim.Engine
	SubmitMix(r *rand.Rand, onDone func(app.Result)) (string, error)
}

// NewGenerator builds a generator for a deployed app.
func NewGenerator(a Target, p Pattern, meter *telemetry.Meter, seed int64) *Generator {
	return &Generator{
		App: a, Pattern: p, Meter: meter,
		eng: a.Engine(), rng: sim.Stream(seed, "workload"),
		spikeMul: 1,
	}
}

// Start begins issuing requests.
func (g *Generator) Start() {
	g.stopped = false
	g.epoch++
	g.scheduleNext()
}

// Stop halts future arrivals (in-flight requests complete).
func (g *Generator) Stop() { g.stopped = true }

// Spike multiplies the arrival rate by (1+factor) for d — the Table 5
// "workload variation" anomaly. Spikes stack multiplicatively. A factor of
// -1 or below, NaN or ±Inf would zero or poison the multiplier (and a
// zero's expiry divides by it): Spike rejects it and changes nothing.
func (g *Generator) Spike(factor float64, d sim.Time) error {
	if !(factor > -1) || math.IsInf(factor, 1) { // NaN fails the comparison
		return fmt.Errorf("workload: spike factor must be finite and > -1, got %g", factor)
	}
	mul := 1 + factor
	g.spikeMul *= mul
	g.rearm()
	g.schedule(d, spikeEnd, 0, mul)
	return nil
}

// rearm re-anchors the thinning envelope after the rate multiplier changes.
// The Constant fast path keeps its already-scheduled arrival instead — that
// is the legacy behavior (the new multiplier takes effect at the next
// arrival), preserved bit-for-bit so the pinned experiment goldens, all of
// which drive Constant patterns, stay byte-identical.
func (g *Generator) rearm() {
	if g.stopped {
		return
	}
	if _, ok := g.Pattern.(Constant); ok {
		return
	}
	g.epoch++
	g.scheduleNext()
}

// idlePoll is how often a fully idle generator (zero rate bound) re-checks
// its pattern for the rate coming back.
const idlePoll = 100 * sim.Millisecond

// genKind is what a genEvent does when it fires.
type genKind uint8

const (
	arrival   genKind = iota // a Constant pattern's next request
	candidate                // a thinning proposal, accepted with p = rate/bound
	idle                     // a zero-bound generator re-checking its pattern
	spikeEnd                 // a Spike's expiry: divide its multiplier back out
)

// genEvent is one scheduled generator event. The first three kinds are
// no-ops once stale — the generator stopped or its epoch moved on since they
// were scheduled; a spike's expiry always runs.
type genEvent struct {
	g     *Generator
	epoch uint64
	bound float64 // candidate: the envelope it was drawn at
	mul   float64 // spikeEnd: the multiplier to divide out
	kind  genKind
}

// schedule fires a pooled event of the given kind after delay, stamped with
// the current epoch.
//
//firmvet:noalloc
func (g *Generator) schedule(delay sim.Time, kind genKind, bound, mul float64) {
	var e *genEvent
	if n := len(g.free); n > 0 {
		e = g.free[n-1]
		g.free[n-1] = nil
		g.free = g.free[:n-1]
	} else {
		//firmvet:allow noalloc -- freelist warm-up miss; a generator allocates one record per event it has pending at once, then recycles them
		e = &genEvent{g: g}
	}
	e.epoch, e.kind, e.bound, e.mul = g.epoch, kind, bound, mul
	g.eng.ScheduleAction(delay, e)
}

// Fire implements sim.Action. The record goes back to the pool before it
// acts: acting schedules the generator's next event, which reuses it.
//
//firmvet:noalloc
func (e *genEvent) Fire() {
	g, ev := e.g, *e
	g.free = append(g.free, e)
	if ev.kind == spikeEnd {
		g.spikeMul /= ev.mul
		g.rearm()
		return
	}
	if g.stopped || ev.epoch != g.epoch {
		return
	}
	switch ev.kind {
	case arrival:
		g.fire()
	case candidate:
		// Thinning: accept the candidate with probability rate/bound. The
		// uniform draw is consumed unconditionally so the RNG stream stays
		// aligned regardless of the accept/reject outcome.
		rate := g.Pattern.Rate(g.eng.Now()) * g.spikeMul
		if u := g.rng.Float64(); u*ev.bound < rate {
			g.fire()
		}
	}
	g.scheduleNext()
}

func (g *Generator) scheduleNext() {
	if c, ok := g.Pattern.(Constant); ok {
		g.scheduleConstant(c)
		return
	}
	bound := g.Pattern.MaxRate() * g.spikeMul
	if !(bound > 0) || math.IsInf(bound, 1) { // zero, negative, NaN, or +Inf: idle until the pattern wakes
		g.schedule(idlePoll, idle, 0, 0)
		return
	}
	gap := sim.Exponential(g.rng, sim.FromSeconds(1/bound))
	if gap < 1 {
		gap = 1
	}
	g.schedule(gap, candidate, bound, 0)
}

// scheduleConstant is the pre-thinning sampler, exact for a fixed rate: the
// next gap is exponential at the current effective rate. It samples the
// rate once per gap, which for the constant patterns it is restricted to
// only matters across Spike boundaries — where it reproduces the historical
// (golden-pinned) behavior of applying the new multiplier one arrival late.
// The arrival carries the epoch, so a Stop/Start (or second Start) before it
// fires does not leave it running next to the new chain; rearm never bumps
// the epoch for a Constant, so Spike keeps the scheduled arrival as before.
func (g *Generator) scheduleConstant(c Constant) {
	rate := c.Rate(g.eng.Now()) * g.spikeMul
	if rate <= 0 {
		// Idle: poll again shortly for the pattern to come back.
		g.schedule(idlePoll, idle, 0, 0)
		return
	}
	gap := sim.Exponential(g.rng, sim.FromSeconds(1/rate))
	if gap < 1 {
		gap = 1
	}
	g.schedule(gap, arrival, 0, 0)
}

func (g *Generator) fire() {
	typ, err := g.App.SubmitMix(g.rng, nil)
	if err != nil {
		return
	}
	g.Submitted++
	if g.Meter != nil {
		g.Meter.Record(typ)
	}
}
