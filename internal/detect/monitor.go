package detect

import (
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/trace"
)

// Monitor is an incremental SLO-violation detector: it mirrors the trace
// store's current time window — end-to-end latencies of completed requests
// plus the count of dropped ones — and answers the control loop's per-tick
// questions (violated? effective P99?) without re-selecting or re-sorting
// the window. Feed it as a tracedb.Observer; the owner advances the window
// bound each tick with Advance.
//
// Results are bit-identical to the batch path it replaces (Violated /
// stats.Percentile over a fresh tracedb.Select): the latency multiset is
// exactly the Query{Since, IncludeDrop: true} selection, maintained as
// traces complete and expire instead of recomputed.
//
// A Monitor is single-goroutine state, owned by one controller. It must
// NOT hang off a shared Extractor: extractors are deliberately read-only so
// rollout workers can share them (see harness.NewExtractor).
type Monitor struct {
	win *stats.Window

	// entries holds the in-window traces in consume order, which is End
	// order (traces complete on the engine's monotonic clock).
	entries fifo[monEntry]

	drops int
}

// monEntry remembers what was added for one trace, so eviction removes
// exactly the same observation. The trace pointer is identity for ring
// evictions.
type monEntry struct {
	t       *trace.Trace
	end     sim.Time
	lat     float64 // end-to-end latency, ms (valid when !dropped)
	dropped bool
}

// NewMonitor returns an empty monitor. The capacity hint presizes for the
// expected number of in-window traces.
func NewMonitor(capHint int) *Monitor {
	return &Monitor{win: stats.NewWindow(capHint), entries: newFIFO[monEntry](capHint)}
}

// TraceStored implements tracedb.Observer.
func (m *Monitor) TraceStored(t *trace.Trace) {
	e := monEntry{t: t, end: t.End, dropped: t.Dropped}
	if t.Dropped {
		m.drops++
	} else {
		e.lat = t.Latency().Millis()
		m.win.Add(e.lat)
	}
	*m.entries.push() = e
}

// TraceEvicted implements tracedb.Observer: the store's ring dropped its
// oldest trace. The ring evicts in consume order, so the only candidate is
// our front entry; anything older was already expired by Advance.
func (m *Monitor) TraceEvicted(t *trace.Trace) {
	if m.entries.len() > 0 && m.entries.at(0).t == t {
		m.pop()
	}
}

// Advance expires entries whose trace ended before since — the incremental
// equivalent of re-selecting Query{Since: since}.
func (m *Monitor) Advance(since sim.Time) {
	for m.entries.len() > 0 && m.entries.at(0).end < since {
		m.pop()
	}
}

func (m *Monitor) pop() {
	e := m.entries.pop()
	if e.dropped {
		m.drops--
	} else {
		m.win.Remove(e.lat)
	}
	e.t = nil // release the trace for GC
}

// Len returns the number of in-window traces, dropped ones included.
func (m *Monitor) Len() int { return m.entries.len() }

// Drops returns the number of dropped requests in the window.
func (m *Monitor) Drops() int { return m.drops }

// Completed returns the number of non-dropped requests in the window.
func (m *Monitor) Completed() int { return m.entries.len() - m.drops }

// P99 returns the 99th-percentile end-to-end latency (ms) of the window's
// completed requests — NaN when there are none, like the batch Percentile.
func (m *Monitor) P99() float64 { return m.win.Percentile(99) }

// Violated reports whether the window breaches the SLO, with the exact
// semantics of the batch Violated: any dropped request is a violation;
// otherwise P99 must exceed the SLO (an empty window never violates).
func (m *Monitor) Violated(slo sim.Time) bool {
	if m.drops > 0 {
		return true
	}
	return m.win.Percentile(99) > slo.Millis()
}
