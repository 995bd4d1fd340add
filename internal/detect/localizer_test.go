package detect

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"firm/internal/cpath"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// streamTrace synthesizes one multi-span trace ending at now: root → A → B
// with a second A instance sometimes, an occasional background span on an
// instance of its own or on B's, and occasional drops — every structural
// case feature extraction handles.
func streamTrace(i int, now sim.Time, r *rand.Rand) *trace.Trace {
	id := trace.TraceID(i + 1)
	aDur := sim.FromMillis(10 + r.Float64()*2)
	if r.Float64() < 0.2 {
		aDur = sim.FromMillis(80 + r.Float64()*40)
	}
	bDur := sim.FromMillis(20 + r.Float64()*0.5)
	start := now - aDur - bDur - sim.FromMillis(2.2)
	aStart := start + sim.FromMillis(1)
	aEnd := aStart + aDur
	bStart := aEnd + sim.FromMillis(0.2)
	aReplica := 1
	if r.Intn(3) == 0 {
		aReplica = 2
	}
	spans := []trace.Span{
		{ID: 1, Parent: 0, Start: start, Dur: uint32(now - start)},
		{ID: 2, Parent: 1, Start: aStart, Dur: uint32(aDur)},
		{ID: 3, Parent: 1, Start: bStart, Dur: uint32(bDur)},
	}
	spans[0].Service, spans[0].Instance = on("root", 1)
	spans[1].Service, spans[1].Instance = on("A", aReplica)
	spans[2].Service, spans[2].Instance = on("B", 1)
	tr := &trace.Trace{
		ID: id, Type: "req", Names: testNames,
		Start: start, End: now,
		Dropped: r.Intn(15) == 0,
	}
	if r.Intn(4) == 0 {
		gc := trace.Span{
			ID: 4, Parent: 1,
			Start: aStart, Dur: uint32(sim.FromMillis(3 + r.Float64()*aDur.Millis())),
			Background: true,
		}
		gc.Service, gc.Instance = on("gc", 1)
		spans = append(spans, gc)
	}
	if r.Intn(5) == 0 {
		// A background child of B on B's own instance: that instance has
		// an on-CP pair and a background pair in one trace, in that order.
		flush := trace.Span{
			ID: 5, Parent: 3,
			Start: bStart, Dur: uint32(sim.FromMillis(1 + r.Float64()*30)),
			Background: true,
		}
		flush.Service, flush.Instance = on("B", 1)
		spans = append(spans, flush)
	}
	tr.Seal(spans)
	return tr
}

// namedCand is a Candidate as the string-keyed localizer reported it.
type namedCand struct {
	instance, service string
	ri, ci            float64
}

// stringKeyedFeatures is Alg. 2's feature extraction written plainly, as it
// stood while spans carried their service and instance as strings — a batch
// pass over the window into maps keyed by instance name, the result sorted
// by that name. It is the oracle that the Localizer's ID-keyed state
// (slices by instance ID, names resolved for the sort alone) is held to,
// used incrementally and as a one-shot fold.
func stringKeyedFeatures(cfg Config, traces []*trace.Trace) []namedCand {
	type instanceStats struct {
		service                     string
		durations, perTrace, cpLats []float64
		bgOnly                      bool
	}
	table := map[string]*instanceStats{}
	for _, t := range traces {
		if t.Dropped {
			continue
		}
		var cp cpath.Extractor
		p := cp.Extract(t)
		inst := func(s trace.Span) string { return t.Names.InstanceName(s.Instance) }
		onCP := map[string]sim.Time{}
		for _, s := range p.Spans {
			onCP[inst(s)] += cp.Kids.SelfDuration(s)
		}
		e2e := t.Latency().Millis()
		spans := t.AppendSpans(nil)
		for _, s := range spans {
			st, ok := table[inst(s)]
			if !ok {
				st = &instanceStats{service: t.Names.ServiceName(uint32(s.Service)), bgOnly: true}
				table[inst(s)] = st
			}
			if !s.Background {
				st.bgOnly = false
			}
			st.durations = append(st.durations, cp.Kids.SelfDuration(s).Millis())
		}
		for name, d := range onCP {
			st := table[name]
			st.perTrace = append(st.perTrace, d.Millis())
			st.cpLats = append(st.cpLats, e2e)
		}
		for _, s := range spans {
			if s.Background {
				st := table[inst(s)]
				st.perTrace = append(st.perTrace, cp.Kids.SelfDuration(s).Millis())
				st.cpLats = append(st.cpLats, e2e)
			}
		}
	}
	var out []namedCand
	for name, st := range table {
		if len(st.durations) < minSamples || len(st.perTrace) < minSamples || (st.bgOnly && !cfg.IncludeBackground) {
			continue
		}
		ri, err := stats.Pearson(st.perTrace, st.cpLats)
		if err != nil {
			continue
		}
		ci := 1.0
		if t50 := stats.Percentile(st.durations, 50); t50 > 0 {
			ci = stats.Percentile(st.durations, 99) / t50
		}
		out = append(out, namedCand{instance: name, service: st.service, ri: ri, ci: ci})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].instance < out[j].instance })
	return out
}

// TestIDKeyedCandidatesMatchStringKeyedOracle: over seeded random windows,
// the Localizer — incrementally, attached to the store, and as the one-shot
// fold Extractor.Candidates runs over the selected window — names the same
// instances, in the same (name) order, with bit-equal features, as the
// string-keyed oracle.
func TestIDKeyedCandidatesMatchStringKeyedOracle(t *testing.T) {
	e := newExtractor(t)
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		store := newStorePair(0, 64)
		loc := NewLocalizer(e, 4)
		store.db.Observe(loc)
		now := sim.Time(0)
		for i := 0; i < 150; i++ {
			now += sim.Time(5+r.Intn(40)) * sim.Millisecond
			store.Consume(streamTrace(i, now, r))
			if i%10 != 9 {
				continue
			}
			since := now - 2*sim.Second
			loc.Advance(since)
			window := store.held(since)
			want := stringKeyedFeatures(e.cfg, window)
			where := fmt.Sprintf("seed %d step %d", seed, i)
			checkOracle(t, where+" incremental", loc.Candidates(), want)
			checkOracle(t, where+" one-shot", e.Candidates(window), want)
		}
	}
}

// checkOracle asserts that got names the oracle's instances, in its order,
// with bit-equal RI and CI.
func checkOracle(t *testing.T, where string, got []Candidate, want []namedCand) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, oracle %d", where, len(got), len(want))
	}
	for j, c := range got {
		named := namedCand{testNames.InstanceName(c.Instance), testNames.ServiceName(c.Service), c.RI, c.CI}
		if named.instance != want[j].instance || named.service != want[j].service ||
			math.Float64bits(named.ri) != math.Float64bits(want[j].ri) ||
			math.Float64bits(named.ci) != math.Float64bits(want[j].ci) {
			t.Fatalf("%s candidate %d: %+v, oracle %+v", where, j, named, want[j])
		}
	}
}

// FuzzCandidatesMatchOracle streams a mutated number of streamTrace traces,
// seeded by the input, through a store that keeps the newest floor of them,
// with a Localizer observing the store and advanced to a mutated window
// every step. At checkpoints drawn from the stream (and after the last
// trace) the incremental Candidates and the one-shot Extractor.Candidates
// over the window's traces both equal the string-keyed oracle — the same
// instances, in the same order, with bit-equal RI and CI — and agree with
// each other on Score and Critical.
func FuzzCandidatesMatchOracle(f *testing.F) {
	e := newExtractor(f)
	f.Add(int64(1), uint16(2000), uint8(56), uint16(150))
	f.Add(int64(7), uint16(300), uint8(4), uint16(300))
	f.Add(int64(-3), uint16(2900), uint8(200), uint16(399))
	f.Add(int64(42), uint16(0), uint8(0), uint16(60))
	f.Fuzz(func(t *testing.T, seed int64, windowMs uint16, floor uint8, n uint16) {
		r := rand.New(rand.NewSource(seed))
		window := sim.Time(100+int(windowMs)%3000) * sim.Millisecond
		store := newStorePair(0, 8+int(floor))
		loc := NewLocalizer(e, 4)
		store.db.Observe(loc)
		every := 1 + r.Intn(10)
		steps := 1 + int(n)%400
		now := sim.Time(0)
		for i := 0; i < steps; i++ {
			now += sim.Time(2+r.Intn(60)) * sim.Millisecond
			store.Consume(streamTrace(i, now, r))
			since := now - window
			loc.Advance(since)
			if r.Intn(every) != 0 && i < steps-1 {
				continue
			}
			held := store.held(since)
			want := stringKeyedFeatures(e.cfg, held)
			where := fmt.Sprintf("step %d", i)
			inc, one := loc.Candidates(), e.Candidates(held)
			checkOracle(t, where+" incremental", inc, want)
			checkOracle(t, where+" one-shot", one, want)
			for j := range inc {
				if !sameCand(inc[j], one[j]) {
					t.Fatalf("%s candidate %d: incremental %+v, one-shot %+v", where, j, inc[j], one[j])
				}
			}
		}
	})
}

func sameCand(a, b Candidate) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Instance == b.Instance && a.Service == b.Service &&
		feq(a.RI, b.RI) && feq(a.CI, b.CI) && feq(a.Score, b.Score) && a.Critical == b.Critical
}

// TestLocalizerMatchesBatchCandidates streams randomized span-bearing
// traces through a trace store — one that keeps only the newest 48,
// evicting traces the localizer holds as well as time expiry, and one that
// keeps the localizer's window and a tick more — and pins the incremental
// Candidates against a fresh one-shot fold (Extractor.Candidates) over the
// traces it should hold at every step — field-for-field, bit-for-bit. Both
// run the same Localizer code, so what this checks is the incremental
// bookkeeping: eviction and expiry must leave the log exactly as if the
// surviving traces had been folded from scratch. Arrivals alternate between
// a trickle and a burst, so the trace queue and the observation log drain
// to a few entries and then outgrow their rings from wherever the heads
// stand.
func TestLocalizerMatchesBatchCandidates(t *testing.T) {
	const window = 2 * sim.Second
	e := newExtractor(t)
	for seed := int64(17); seed < 23; seed++ {
		store := []storePair{newStorePair(window+sim.Second, 0), newStorePair(0, 48)}[seed%2]
		loc := NewLocalizer(e, 4)
		store.db.Observe(loc)

		r := rand.New(rand.NewSource(seed))
		now := sim.Time(0)
		checked := 0
		for i := 0; i < 1200; i++ {
			gap := 5 + r.Intn(40)
			if i/120%2 == 0 {
				gap = 150 + r.Intn(300)
			}
			now += sim.Time(gap) * sim.Millisecond
			store.Consume(streamTrace(i, now, r))

			since := now - window
			loc.Advance(since)
			// Check every few steps (and always late in the stream) so both
			// the freshly-pending and the deep steady state are covered.
			if i%7 != 0 && i < 1100 {
				continue
			}
			checked++
			batch := store.held(since)
			want := e.Candidates(batch)
			got := loc.Candidates()
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: %d candidates, batch %d\n got: %+v\nwant: %+v", seed, i, len(got), len(want), got, want)
			}
			for j := range got {
				if !sameCand(got[j], want[j]) {
					t.Fatalf("seed %d step %d candidate %d:\n got: %+v\nwant: %+v", seed, i, j, got[j], want[j])
				}
			}
		}
		if checked == 0 || loc.Len() == 0 {
			t.Fatalf("seed %d: stream never exercised the comparison", seed)
		}
	}
}

// TestLocalizerObserveReplaysExistingTraces: attaching after the workload
// started must converge to the same state as a fresh one-shot fold over a
// fresh Select — the store's replay must feed the localizer exactly the
// window's traces.
func TestLocalizerObserveReplaysExistingTraces(t *testing.T) {
	e := newExtractor(t)
	store := newStorePair(0, 64)
	r := rand.New(rand.NewSource(23))
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += sim.Time(10+r.Intn(20)) * sim.Millisecond
		store.Consume(streamTrace(i, now, r))
	}
	loc := NewLocalizer(e, 4)
	store.db.Observe(loc)
	since := now - 2*sim.Second
	loc.Advance(since)
	batch := store.held(since)
	want := e.Candidates(batch)
	got := loc.Candidates()
	if len(got) != len(want) {
		t.Fatalf("replayed attach: %d candidates, batch %d", len(got), len(want))
	}
	for j := range got {
		if !sameCand(got[j], want[j]) {
			t.Fatalf("replayed candidate %d: %+v want %+v", j, got[j], want[j])
		}
	}
}

// TestLocalizerSteadyStateAllocFree pins the detect-features benchmark's
// claim: with the window quiescent (everything already folded in), an
// advance + Candidates tick allocates nothing.
func TestLocalizerSteadyStateAllocFree(t *testing.T) {
	e := newExtractor(t)
	db := tracedb.New(0, 256)
	loc := NewLocalizer(e, 4)
	db.Observe(loc)
	r := rand.New(rand.NewSource(29))
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		now += sim.Time(2+r.Intn(6)) * sim.Millisecond
		db.Consume(streamTrace(i, now, r))
	}
	since := now - sim.Second
	loc.Advance(since)
	if got := loc.Candidates(); len(got) == 0 {
		t.Fatal("warmup produced no candidates; scenario too small")
	}
	allocs := testing.AllocsPerRun(100, func() {
		loc.Advance(since)
		loc.Candidates()
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

// evictTally is a Localizer as a tracedb observer that also counts the store
// evictions that reach it, by whether the evicted entry had been processed.
type evictTally struct {
	*Localizer
	processed, unprocessed int
}

func (w *evictTally) TraceEvicted(t *trace.Trace) {
	if w.entries.Len() > 0 && w.entries.At(0).t == t {
		if w.proc > 0 {
			w.processed++
		} else {
			w.unprocessed++
		}
	}
	w.Localizer.TraceEvicted(t)
}

// checkLog asserts that the observation ring holds exactly the processed
// entries' observations: read front to back, the oldest proc entries' spans
// in order — each with its instance, its self-duration, and whether it is
// background and on the trace's CP — and the pending entries none.
func checkLog(t *testing.T, l *Localizer, where string) {
	t.Helper()
	var cp cpath.Extractor
	j := 0
	for k := 0; k < l.proc; k++ {
		e := l.entries.At(k)
		p := cp.Extract(e.t)
		spans := cp.Kids.Spans()
		if int(e.n) != len(spans) || e.e2e != e.t.Latency().Millis() {
			t.Fatalf("%s: entry %d accounts for %d observations and e2e %v; its trace has %d spans and latency %v",
				where, k, e.n, e.e2e, len(spans), e.t.Latency().Millis())
		}
		for i, s := range spans {
			if j >= l.obs.Len() {
				t.Fatalf("%s: ring holds %d observations, processed entries account for more", where, l.obs.Len())
			}
			want := locObs{inst: s.Instance, us: uint32(cp.Kids.SelfDuration(s)), bg: s.Background, cp: slices.Contains(p.Index, int32(i))}
			if got := *l.obs.At(j); got != want {
				t.Fatalf("%s: observation %d is %+v, entry %d's span %d is %+v", where, j, got, k, i, want)
			}
			j++
		}
	}
	if l.obs.Len() != j {
		t.Fatalf("%s: ring holds %d observations, processed entries account for %d", where, l.obs.Len(), j)
	}
	for k := l.proc; k < l.entries.Len(); k++ {
		if e := l.entries.At(k); e.n != 0 {
			t.Fatalf("%s: pending entry %d accounts for %d observations", where, k, e.n)
		}
	}
}

// TestLocalizerEpisodesMatchBatch runs one localizer through many
// episodes, Reset between them the way a rollout worker's testbed resets
// its controller's, on a randomised stream: store size, window and how often
// Candidates runs vary by episode, so entries leave the window processed and
// unprocessed, by expiry (Advance) and by the store (TraceEvicted), while
// the shared observation ring grows from empty in the first episode and
// wraps over what earlier ones left in the rest. After every Advance the
// localizer holds exactly the window's traces; after every Candidates it
// matches a fresh one-shot fold (Extractor.Candidates) over the window bit
// for bit — so a Reset leaves nothing of an earlier episode behind — and the
// observation ring holds exactly the processed entries' observations.
func TestLocalizerEpisodesMatchBatch(t *testing.T) {
	e := newExtractor(t)
	r := rand.New(rand.NewSource(31))
	var expiredProcessed, expiredUnprocessed int
	loc := &evictTally{Localizer: NewLocalizer(e, 1)}
	for ep := 0; ep < 40; ep++ {
		store := newStorePair(0, []int{12, 40, 400}[r.Intn(3)])
		loc.Reset(e)
		store.db.Observe(loc)
		window := sim.Time(300+r.Intn(2500)) * sim.Millisecond
		every := 1 + r.Intn(12)
		now := sim.Time(0)
		for i := 0; i < 150+r.Intn(150); i++ {
			now += sim.Time(2+r.Intn(60)) * sim.Millisecond
			store.Consume(streamTrace(i, now, r))

			since := now - window
			for k := 0; k < loc.entries.Len() && loc.entries.At(k).t.End < since; k++ {
				if k < loc.proc {
					expiredProcessed++
				} else {
					expiredUnprocessed++
				}
			}
			loc.Advance(since)
			batch := store.held(since)
			inWindow := 0
			for _, tr := range batch {
				if !tr.Dropped {
					inWindow++
				}
			}
			if loc.Len() != inWindow {
				t.Fatalf("episode %d step %d: localizer holds %d traces, window %d", ep, i, loc.Len(), inWindow)
			}
			if r.Intn(every) != 0 {
				continue
			}
			want := e.Candidates(batch)
			got := loc.Candidates()
			if len(got) != len(want) {
				t.Fatalf("episode %d step %d: %d candidates, batch %d", ep, i, len(got), len(want))
			}
			for j := range got {
				if !sameCand(got[j], want[j]) {
					t.Fatalf("episode %d step %d candidate %d:\n got: %+v\nwant: %+v", ep, i, j, got[j], want[j])
				}
			}
			checkLog(t, loc.Localizer, fmt.Sprintf("episode %d step %d", ep, i))
		}
	}
	if loc.processed == 0 || loc.unprocessed == 0 || expiredProcessed == 0 || expiredUnprocessed == 0 {
		t.Fatalf("stream missed a case: ring evictions %d processed / %d unprocessed, expiries %d / %d",
			loc.processed, loc.unprocessed, expiredProcessed, expiredUnprocessed)
	}
}

// TestLocalizerResetMatchesNew: a localizer Reset after a stream of its own,
// and bound to an extractor of another configuration, holds and scores the
// next stream exactly as a new one on that extractor does, its observation
// log entry by entry.
func TestLocalizerResetMatchesNew(t *testing.T) {
	e := newExtractor(t)
	cfg := e.cfg
	cfg.IncludeBackground = !cfg.IncludeBackground
	other := New(cfg, e.svm)
	r := rand.New(rand.NewSource(37))
	loc := NewLocalizer(e, 4)
	old := tracedb.New(0, 64)
	old.Observe(loc)
	now := sim.Time(0)
	for i := 0; i < 200; i++ {
		now += sim.Time(2+r.Intn(20)) * sim.Millisecond
		old.Consume(streamTrace(i, now, r))
		if loc.Advance(now - sim.Second); i%9 == 0 {
			loc.Candidates()
		}
	}
	loc.Reset(other)
	fresh := NewLocalizer(other, 4)
	db := tracedb.New(0, 64)
	db.Observe(loc)
	db.Observe(fresh)
	now = 0
	scored := 0
	for i := 0; i < 150; i++ {
		now += sim.Time(2+r.Intn(20)) * sim.Millisecond
		db.Consume(streamTrace(i, now, r))
		loc.Advance(now - sim.Second)
		fresh.Advance(now - sim.Second)
		if loc.Len() != fresh.Len() {
			t.Fatalf("step %d: Reset localizer holds %d traces, a new one %d", i, loc.Len(), fresh.Len())
		}
		if i%5 != 0 {
			continue
		}
		got, want := loc.Candidates(), fresh.Candidates()
		if len(got) != len(want) {
			t.Fatalf("step %d: %d candidates, a new localizer's %d", i, len(got), len(want))
		}
		for j := range got {
			if !sameCand(got[j], want[j]) {
				t.Fatalf("step %d candidate %d: %+v, a new localizer's %+v", i, j, got[j], want[j])
			}
		}
		checkLog(t, loc, fmt.Sprintf("step %d", i))
		scored += len(got)
	}
	if scored == 0 {
		t.Fatal("no step scored a candidate; the stream tests nothing")
	}
}
