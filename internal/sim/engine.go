// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate on which the FIRM reproduction runs: cluster
// nodes, containers, workload generators, the anomaly injector, and the FIRM
// control loop are all scheduled as events on a single logical clock. Using
// one thread per engine (rather than goroutines) keeps every experiment
// bit-for-bit reproducible under a fixed seed. An engine's events wait in a
// heap, or — those that fire one fixed delay after they are scheduled, like
// the request path's network hops — in a FIFO lane for that delay; either
// way they fire in one (time, scheduling order) sequence.
package sim

import (
	"fmt"
	"math/rand"

	"firm/internal/ring"
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

// event is a scheduled Action. Events with equal timestamps fire in
// scheduling order (FIFO), which the seq field enforces. (at, seq) is a
// strict total order — seq is unique per engine — so the fire sequence is
// the same for any heap arrangement and any split between heap and lanes.
// A mail is an event too: inside a ShardedEngine shard's inbox, seq holds
// the sender's key, and Send's contract makes it unique per timestamp.
type event struct {
	at  Time
	seq uint64
	act Action
}

// before reports whether ev sorts before o under (at, seq): whether it fires
// first, or, in a shard's inbox, is scheduled first.
func (ev *event) before(o *event) bool {
	return ev.at < o.at || ev.at == o.at && ev.seq < o.seq
}

// eventHeap is an inlined binary min-heap of event values ordered by
// (at, seq) — not container/heap, whose interface boxing costs an
// allocation and dynamic dispatches per event. Values, not pointers: a
// comparison reads the slice itself rather than two records of a pool, and
// a push or pop moves a hole up or down the path and writes the sifted
// event once, at the end.
type eventHeap []event

//firmvet:noalloc
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes the top event.
//
//firmvet:noalloc
func (h *eventHeap) pop() {
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n].act = nil // do not pin the action through the free tail
	s = s[:n]
	*h = s
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
}

// Lane is a FIFO of events that all fire one fixed delay after they are
// scheduled. The clock never goes back and seq only grows, so a lane's
// events come out of it already in (at, seq) order: scheduling one costs an
// append and firing one a pop, with no sifting. The engine fires the
// earliest of its heap's top and its lanes' heads, so an event fires at the
// same point whether it waited in a lane or in the heap.
type Lane struct {
	eng   *Engine
	delay Time
	q     ring.Ring[event]
}

// Lane returns the engine's lane for delay, creating it on first use; a
// negative delay is treated as zero, as in Schedule. A lane lives as long as
// its engine: Reset empties it and keeps it.
func (e *Engine) Lane(delay Time) *Lane {
	delay = max(delay, 0)
	for _, l := range e.lanes {
		if l.delay == delay {
			return l
		}
	}
	l := &Lane{eng: e, delay: delay}
	e.lanes = append(e.lanes, l)
	return l
}

// Delay returns the lane's fixed delay.
func (l *Lane) Delay() Time { return l.delay }

// Schedule fires act one lane delay from now: the same event as
// ScheduleAction(l.Delay(), act).
//
//firmvet:noalloc
func (l *Lane) Schedule(act Action) {
	if act == nil {
		panic("sim: Lane.Schedule with nil action")
	}
	e := l.eng
	e.seq++
	*l.q.Push() = event{at: e.now + l.delay, seq: e.seq, act: act}
}

// Engine is a discrete-event simulator with a deterministic RNG. Its events
// wait in a heap or in one of its lanes.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	lanes  []*Lane
	rng    *rand.Rand
	nSteps uint64
}

// NewEngine returns an engine whose random stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Reset returns the engine to what NewEngine(seed) builds: clock and
// counters at zero, no events, its stream reseeded in place (Rand keeps
// returning the same *rand.Rand). Pending events are discarded unfired. The
// heap and the lanes keep their storage, and the lanes stay the engine's:
// Lane returns them as before.
func (e *Engine) Reset(seed int64) {
	clear(e.events)
	e.events = e.events[:0]
	for _, l := range e.lanes {
		l.q.Reset()
	}
	e.now, e.seq, e.nSteps = 0, 0, 0
	e.rng.Seed(seed)
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
func (e *Engine) Pending() int {
	n := len(e.events)
	for _, l := range e.lanes {
		n += l.q.Len()
	}
	return n
}

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
// "now". Every event but a lane's is created here: Schedule and ScheduleAt
// wrap their callback in Func and land here too.
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
	e.events.push(event{at: at, seq: e.seq, act: act})
}

// peek returns the next event to fire — the earliest under (at, seq) of the
// heap's top and the lanes' heads — and the lane it waits in, nil for the
// heap. It returns a nil event when nothing is pending.
//
//firmvet:noalloc
func (e *Engine) peek() (*event, *Lane) {
	var next *event
	if len(e.events) > 0 {
		next = &e.events[0]
	}
	var from *Lane
	for _, l := range e.lanes {
		if l.q.Len() > 0 {
			if h := l.q.At(0); next == nil || h.before(next) {
				next, from = h, l
			}
		}
	}
	return next, from
}

// fire removes ev, which peek returned with from, advances the clock to it
// and runs it.
//
//firmvet:noalloc
func (e *Engine) fire(ev *event, from *Lane) {
	at, act := ev.at, ev.act
	if from != nil {
		ev.act = nil // the ring slot keeps its tenant; do not pin the action
		from.q.Pop()
	} else {
		e.events.pop()
	}
	e.now = at
	e.nSteps++
	act.Fire()
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
//
//firmvet:noalloc
func (e *Engine) Step() bool {
	ev, from := e.peek()
	if ev == nil {
		return false
	}
	e.fire(ev, from)
	return true
}

// RunUntil executes events until the clock reaches t (inclusive of events at
// exactly t) or the event queue drains. The clock is left at t if it was
// reached, otherwise at the last event time.
//
//firmvet:noalloc
func (e *Engine) RunUntil(t Time) {
	for {
		ev, from := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.fire(ev, from)
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
