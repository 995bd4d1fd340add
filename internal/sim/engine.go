// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the FIRM reproduction runs: cluster
// nodes, containers, workload generators, the anomaly injector, and the FIRM
// control loop are all scheduled as events on a single logical clock. Using
// a single-threaded event heap (rather than goroutines) keeps every
// experiment bit-for-bit reproducible under a fixed seed.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is simulated time measured in microseconds since the start of the
// simulation. Microsecond resolution matches the span timestamps produced by
// distributed tracing systems such as Jaeger, which FIRM's tracing module is
// modelled on.
type Time int64

// Common durations expressed in simulated microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// FromSeconds converts floating-point seconds to a Time. Fractional
// microseconds truncate toward zero (Go float64→int64 conversion): the
// engine's clock has microsecond resolution and sub-µs residue is model
// noise, not information. FromSeconds(1e-7) is therefore 0, not 1 — callers
// that need "at least one tick" must clamp themselves.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMillis converts floating-point milliseconds to a Time, truncating
// fractional microseconds toward zero like FromSeconds.
func FromMillis(ms float64) Time { return Time(ms * float64(Millisecond)) }

// Action is what a scheduled event does when its time comes. Long-lived
// model objects (a request's call frame, a container's in-flight record)
// implement it directly, so scheduling them costs no closure.
type Action interface {
	Fire()
}

// Func adapts a plain callback to Action. Function values are
// pointer-shaped, so the conversion to Action does not allocate.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is a scheduled Action. Events with equal timestamps fire in
// scheduling order (FIFO), which the seq field enforces. (at, seq) is a
// strict total order — seq is unique per engine — so the pop sequence is
// the same for any heap arrangement.
type event struct {
	at  Time
	seq uint64
	act Action
}

// eventHeap is an inlined binary min-heap ordered by (at, seq). It replaces
// container/heap: the interface indirection and interface{} boxing cost one
// allocation plus several dynamic dispatches per event, which at 10,000
// services is the dominant per-event constant factor (see internal/perf's
// shard-step benchmark).
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

//firmvet:noalloc
func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

//firmvet:noalloc
func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Engine is a discrete-event simulator with a deterministic RNG.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// free recycles executed event records; at steady state the hot loop
	// (pop → run → push) allocates nothing.
	free   []*event
	rng    *rand.Rand
	nSteps uint64
}

// NewEngine returns an engine whose random stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream. All model-level
// randomness (service-time noise, workload interarrival, anomaly selection)
// must come from this stream or from a stream derived from it so that runs
// are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending reports how many events are currently scheduled.
func (e *Engine) Pending() int { return len(e.events) }

// Schedule runs fn after delay. A negative delay is treated as zero (fire as
// soon as possible, after already-queued events at the current instant).
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at the absolute simulated time at. Times in the past
// are clamped to "now".
//
//firmvet:noalloc
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if fn == nil {
		panic("sim: ScheduleAt with nil callback")
	}
	e.ScheduleActionAt(at, Func(fn))
}

// ScheduleAction fires act after delay; a negative delay is treated as zero,
// as in Schedule.
func (e *Engine) ScheduleAction(delay Time, act Action) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleActionAt(e.now+delay, act)
}

// ScheduleActionAt fires act at the absolute simulated time at, clamped to
// "now". It is the one place events are created: Schedule and ScheduleAt
// wrap their callback in Func and land here.
//
//firmvet:noalloc
func (e *Engine) ScheduleActionAt(at Time, act Action) {
	if act == nil {
		panic("sim: ScheduleActionAt with nil action")
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		//firmvet:allow noalloc -- freelist warm-up miss; at steady state every pop feeds the freelist and this branch never runs
		ev = &event{}
	}
	ev.at, ev.seq, ev.act = at, e.seq, act
	e.events.push(ev)
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
//
//firmvet:noalloc
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.events.pop()
	e.now = ev.at
	e.nSteps++
	act := ev.act
	// Recycle before firing: the action may reschedule, and clearing the
	// reference now keeps the freelist from pinning dead captures.
	ev.act = nil
	e.free = append(e.free, ev)
	act.Fire()
	return true
}

// RunUntil executes events until the clock reaches t (inclusive of events at
// exactly t) or the event queue drains. The clock is left at t if it was
// reached, otherwise at the last event time.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Drain runs until no events remain or maxEvents have executed, returning
// the number executed. It guards against runaway self-rescheduling loops.
func (e *Engine) Drain(maxEvents uint64) uint64 {
	var n uint64
	for n < maxEvents && e.Step() {
		n++
	}
	return n
}

// Ticker repeatedly invokes fn every period until Stop is called. The first
// invocation happens one period after Start. Stop/Start cycles are
// supported: each Start opens a new tick generation, so a restarted ticker
// resumes ticking and a tick left over from before the Stop can never fire
// again (it carries the old generation). Each tick is a pooled,
// generation-stamped record, not a closure: a warm ticker allocates nothing.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func()
	stopped bool
	gen     uint64
	// free recycles fired ticks: one record per tick pending at once — the
	// live chain's, plus one for each retired chain still in the heap.
	free []*tick
}

// tick is one scheduled tick of a Ticker's generation gen.
type tick struct {
	t   *Ticker
	gen uint64
}

// NewTicker creates (but does not start) a ticker.
func NewTicker(eng *Engine, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	return &Ticker{eng: eng, period: period, fn: fn}
}

// Start schedules the ticker's first tick. Starting an already-running
// ticker retires its pending tick chain and begins a fresh one (a restart,
// not a second chain).
func (t *Ticker) Start() {
	t.stopped = false
	t.gen++
	t.schedule(t.gen)
}

// Stop prevents any future ticks. Safe to call multiple times; bumping the
// generation retires the pending tick immediately instead of letting it
// fire up to one period later.
func (t *Ticker) Stop() {
	t.stopped = true
	t.gen++
}

// schedule queues the next tick of generation gen, one period from now.
//
//firmvet:noalloc
func (t *Ticker) schedule(gen uint64) {
	var k *tick
	if n := len(t.free); n > 0 {
		k = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		//firmvet:allow noalloc -- freelist warm-up miss; a ticker allocates one record per tick pending at once, then recycles them
		k = &tick{t: t}
	}
	k.gen = gen
	t.eng.ScheduleAction(t.period, k)
}

// Fire implements Action: a retired tick is a no-op; a live one runs fn and
// queues the chain's next tick. The record goes back to the pool first, so
// the next tick reuses it.
//
//firmvet:noalloc
func (k *tick) Fire() {
	t, gen := k.t, k.gen
	t.free = append(t.free, k)
	if t.stopped || gen != t.gen {
		return
	}
	t.fn()
	t.schedule(gen)
}
