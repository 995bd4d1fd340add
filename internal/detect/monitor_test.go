package detect

import (
	"math"
	"math/rand"
	"testing"

	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// storePair feeds one stream to db, a store under test, and to ref, an
// unbounded one. held is the batch oracle for db's observers: what one
// holds after Advance(since) — the traces db still keeps that ended at or
// after since — read from ref, which db may have evicted from.
type storePair struct{ db, ref *tracedb.Store }

func newStorePair(window sim.Time, floor int) storePair {
	return storePair{tracedb.New(window, floor), tracedb.New(tracedb.Forever, 0)}
}

func (p storePair) Consume(t *trace.Trace) {
	p.db.Consume(t)
	p.ref.Consume(t)
}

func (p storePair) held(since sim.Time) []*trace.Trace {
	all := p.ref.Select(tracedb.Query{Since: since, IncludeDrop: true})
	return all[len(all)-min(len(all), p.db.Len()):]
}

// TestMonitorMatchesBatchWindow feeds randomized trace streams through a
// trace store — one that keeps only the newest 64, so evictions reach
// traces the monitor holds and not just time expiry, and one that keeps
// the monitor's window and a tick more — and checks at every step that the
// Monitor's violated/P99 answers are bit-identical to the batch path over
// the traces it should hold — the invariant the controller's
// byte-identical-output guarantee rests on. Arrivals alternate between a
// trickle and a burst, so the monitor's queue drains to a few entries, its
// head moving round the ring, and then outgrows the ring from wherever the
// head stands.
func TestMonitorMatchesBatchWindow(t *testing.T) {
	const (
		window = 2 * sim.Second
		slo    = 40 * sim.Millisecond
	)
	for seed := int64(11); seed < 17; seed++ {
		store := []storePair{newStorePair(0, 64), newStorePair(window+sim.Second, 0)}[seed%2]
		db := store.db
		r := rand.New(rand.NewSource(seed))
		m := NewMonitor(4)
		db.Observe(m)

		now := sim.Time(0)
		for i := 0; i < 2000; i++ {
			gap := r.Intn(30)
			if i/150%2 == 0 {
				gap = 100 + r.Intn(300)
			}
			now += sim.Time(gap) * sim.Millisecond
			lat := sim.Time(1+r.Intn(80)) * sim.Millisecond
			tr := &trace.Trace{
				ID:      trace.TraceID(i + 1),
				Type:    "t",
				Start:   now - lat,
				End:     now,
				Dropped: r.Intn(12) == 0,
			}
			store.Consume(tr)

			since := now - window
			m.Advance(since)
			batch := store.held(since)
			if got, want := m.Violated(slo), Violated(batch, slo); got != want {
				t.Fatalf("seed %d step %d: Violated=%v, batch %v", seed, i, got, want)
			}
			var lats []float64
			drops := 0
			for _, bt := range batch {
				if bt.Dropped {
					drops++
				} else {
					lats = append(lats, bt.Latency().Millis())
				}
			}
			if m.Len() != len(batch) || m.Drops() != drops || m.Completed() != len(lats) {
				t.Fatalf("seed %d step %d: Len/Drops/Completed = %d/%d/%d, batch %d/%d/%d",
					seed, i, m.Len(), m.Drops(), m.Completed(), len(batch), drops, len(lats))
			}
			got, want := m.P99(), stats.Percentile(lats, 99)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("seed %d step %d: P99=%v, batch %v", seed, i, got, want)
			}
		}
		if m.Len() == 0 {
			t.Fatalf("seed %d: stream never populated the window", seed)
		}
	}
}

// TestMonitorObserveReplaysExistingTraces: registering after the workload
// started must see the same window as a fresh Select (controllers can
// attach mid-run).
func TestMonitorObserveReplaysExistingTraces(t *testing.T) {
	db := tracedb.New(0, 8)
	for i := 1; i <= 12; i++ { // only the last 8 remain
		db.Consume(&trace.Trace{
			ID:    trace.TraceID(i),
			Start: sim.Time(i) * sim.Second,
			End:   sim.Time(i)*sim.Second + 10*sim.Millisecond,
		})
	}
	m := NewMonitor(4)
	db.Observe(m)
	if m.Len() != 8 {
		t.Fatalf("replayed Len = %d, want 8", m.Len())
	}
	m.Advance(7 * sim.Second) // expire traces 5 and 6
	if m.Len() != 6 {
		t.Fatalf("after Advance Len = %d, want 6", m.Len())
	}
}

// TestMonitorSteadyStateAllocFree: the per-tick sequence — advance, check,
// measure — must not allocate once the queue and the window reach their
// working-set size.
func TestMonitorSteadyStateAllocFree(t *testing.T) {
	db := tracedb.New(0, 256)
	m := NewMonitor(4)
	db.Observe(m)
	traces := make([]trace.Trace, 512)
	for i := range traces {
		traces[i] = trace.Trace{
			ID:    trace.TraceID(i + 1),
			Start: sim.Time(i) * sim.Millisecond,
			End:   sim.Time(i)*sim.Millisecond + sim.Time(5+i%17)*sim.Millisecond,
		}
		db.Consume(&traces[i])
	}
	now := traces[len(traces)-1].End
	allocs := testing.AllocsPerRun(100, func() {
		m.Advance(now - sim.Second)
		m.Violated(40 * sim.Millisecond)
		m.P99()
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// TestMonitorResetMatchesNew: a monitor Reset after a stream of its own holds
// and answers for the next stream exactly what a new one does.
func TestMonitorResetMatchesNew(t *testing.T) {
	stream := func(db *tracedb.Store, n int, step func(now sim.Time)) {
		for i := 1; i <= n; i++ {
			now := sim.Time(i) * 7 * sim.Millisecond
			db.Consume(&trace.Trace{ID: trace.TraceID(i), Start: now - sim.Time(3+i%29)*sim.Millisecond, End: now, Dropped: i%13 == 0})
			step(now)
		}
	}
	m := NewMonitor(4)
	old := tracedb.New(0, 64)
	old.Observe(m)
	stream(old, 300, func(now sim.Time) { m.Advance(now - 500*sim.Millisecond) })
	m.Reset()
	fresh := NewMonitor(4)
	db := tracedb.New(0, 64)
	db.Observe(m)
	db.Observe(fresh)
	stream(db, 200, func(now sim.Time) {
		m.Advance(now - 300*sim.Millisecond)
		fresh.Advance(now - 300*sim.Millisecond)
		if m.Len() != fresh.Len() || m.Drops() != fresh.Drops() || math.Float64bits(m.P99()) != math.Float64bits(fresh.P99()) ||
			m.Violated(40*sim.Millisecond) != fresh.Violated(40*sim.Millisecond) {
			t.Fatalf("at %v: Reset monitor holds %d (%d dropped, P99 %v), a new one %d (%d, %v)",
				now, m.Len(), m.Drops(), m.P99(), fresh.Len(), fresh.Drops(), fresh.P99())
		}
	})
}
