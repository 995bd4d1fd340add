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

// TestMonitorMatchesBatchWindow feeds randomized trace streams through a
// tracedb ring — a small one, so ring evictions fire and not just time
// expiry, and one the window never fills — and checks at every step that
// the Monitor's violated/P99 answers are bit-identical to the batch path
// over a fresh Select — the invariant the controller's
// byte-identical-output guarantee rests on. Arrivals alternate between a
// trickle and a burst, so the monitor's queue drains to a few entries, its
// head moving round the ring, and then outgrows the ring from wherever the
// head stands: the queue's wrap and grow paths are held to the same oracle.
func TestMonitorMatchesBatchWindow(t *testing.T) {
	const (
		window = 2 * sim.Second
		slo    = 40 * sim.Millisecond
	)
	wrappedGrowths := 0
	for seed := int64(11); seed < 17; seed++ {
		ringCap := []int{64, 500}[seed%2]
		r := rand.New(rand.NewSource(seed))
		db := tracedb.New(ringCap)
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
			head, size := m.entries.head, len(m.entries.buf)
			db.Consume(tr)
			if len(m.entries.buf) != size && head != 0 {
				wrappedGrowths++
			}

			since := now - window
			m.Advance(since)
			batch := db.Select(tracedb.Query{Since: since, IncludeDrop: true})
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
	if wrappedGrowths == 0 {
		t.Fatal("no stream grew the queue while it was wrapped")
	}
}

// TestMonitorObserveReplaysExistingTraces: registering after the workload
// started must see the same window as a fresh Select (controllers can
// attach mid-run).
func TestMonitorObserveReplaysExistingTraces(t *testing.T) {
	db := tracedb.New(8)
	for i := 1; i <= 12; i++ { // wraps the ring: only the last 8 remain
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
	db := tracedb.New(256)
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
