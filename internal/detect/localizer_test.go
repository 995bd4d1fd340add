package detect

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"firm/internal/cpath"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// streamTrace synthesizes one multi-span trace ending at now: root → A → B
// with a second A instance sometimes, an occasional background span, and
// occasional drops — every structural case Features handles.
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
	bEnd := bStart + bDur
	aReplica := 1
	if r.Intn(3) == 0 {
		aReplica = 2
	}
	tr := &trace.Trace{
		ID: id, Type: "req", Names: testNames,
		Start: start, End: now,
		Dropped: r.Intn(15) == 0,
		Spans: []trace.Span{
			{ID: 1, Parent: 0, Start: start, End: now},
			{ID: 2, Parent: 1, Start: aStart, End: aEnd},
			{ID: 3, Parent: 1, Start: bStart, End: bEnd},
		},
	}
	tr.Spans[0].Service, tr.Spans[0].Instance = on("root", 1)
	tr.Spans[1].Service, tr.Spans[1].Instance = on("A", aReplica)
	tr.Spans[2].Service, tr.Spans[2].Instance = on("B", 1)
	if r.Intn(4) == 0 {
		gc := trace.Span{
			ID: 4, Parent: 1,
			Start: aStart, End: aStart + sim.FromMillis(3+r.Float64()*aDur.Millis()),
			Background: true,
		}
		gc.Service, gc.Instance = on("gc", 1)
		tr.Spans = append(tr.Spans, gc)
	}
	return tr
}

// namedCand is a Candidate as the string-keyed localizer reported it.
type namedCand struct {
	instance, service string
	ri, ci            float64
}

// stringKeyedFeatures is Extractor.Features as it stood while spans carried
// their service and instance as strings — maps keyed by instance name, the
// result sorted by that name. It is the oracle that ID-keyed state (slices
// by instance ID, names resolved for the sort alone) is held to.
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
		for _, s := range t.Spans {
			st, ok := table[inst(s)]
			if !ok {
				st = &instanceStats{service: t.Names.ServiceName(s.Service), bgOnly: true}
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
		for _, s := range t.Spans {
			if s.Background {
				st := table[inst(s)]
				st.perTrace = append(st.perTrace, cp.Kids.SelfDuration(s).Millis())
				st.cpLats = append(st.cpLats, e2e)
			}
		}
	}
	var out []namedCand
	for name, st := range table {
		if len(st.durations) < cfg.MinSamples || len(st.perTrace) < cfg.MinSamples || (st.bgOnly && !cfg.IncludeBackground) {
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
// the incremental localizer and the batch extractor — both keyed by instance
// ID — name the same instances, in the same (name) order, with bit-equal
// features, as the string-keyed oracle.
func TestIDKeyedCandidatesMatchStringKeyedOracle(t *testing.T) {
	e := newExtractor(t)
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := tracedb.New(64)
		loc := NewLocalizer(e, 4)
		db.Observe(loc)
		now := sim.Time(0)
		for i := 0; i < 150; i++ {
			now += sim.Time(5+r.Intn(40)) * sim.Millisecond
			db.Consume(streamTrace(i, now, r))
			if i%10 != 9 {
				continue
			}
			since := now - 2*sim.Second
			loc.Advance(since)
			window := db.Select(tracedb.Query{Since: since, IncludeDrop: true})
			want := stringKeyedFeatures(e.cfg, window)
			for which, got := range [][]Candidate{loc.Candidates(), e.Features(window)} {
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d path %d: %d candidates, oracle %d", seed, i, which, len(got), len(want))
				}
				for j, c := range got {
					named := namedCand{testNames.InstanceName(c.Instance), testNames.ServiceName(c.Service), c.RI, c.CI}
					if named.instance != want[j].instance || named.service != want[j].service ||
						math.Float64bits(named.ri) != math.Float64bits(want[j].ri) ||
						math.Float64bits(named.ci) != math.Float64bits(want[j].ci) {
						t.Fatalf("seed %d step %d path %d candidate %d: %+v, oracle %+v", seed, i, which, j, named, want[j])
					}
				}
			}
		}
	}
}

func sameCand(a, b Candidate) bool {
	feq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Instance == b.Instance && a.Service == b.Service &&
		feq(a.RI, b.RI) && feq(a.CI, b.CI) && feq(a.Score, b.Score) && a.Critical == b.Critical
}

// TestLocalizerMatchesBatchCandidates streams randomized span-bearing
// traces through a tracedb ring — a small one, forcing ring evictions as
// well as time expiry, and one the window never fills — and pins the
// incremental Candidates against the batch Extractor.Candidates over a fresh
// Select at every step — field-for-field, bit-for-bit. This is the
// invariant that lets the controller's violated tick run incrementally
// without changing a byte of campaign output. Arrivals alternate between a
// trickle and a burst, so the trace queue and every instance's series drain
// to a few entries and then outgrow their rings from wherever the heads
// stand.
func TestLocalizerMatchesBatchCandidates(t *testing.T) {
	const window = 2 * sim.Second
	e := newExtractor(t)
	for seed := int64(17); seed < 23; seed++ {
		ringCap := []int{500, 48}[seed%2]
		db := tracedb.New(ringCap)
		loc := NewLocalizer(e, 4)
		db.Observe(loc)

		r := rand.New(rand.NewSource(seed))
		now := sim.Time(0)
		checked := 0
		for i := 0; i < 1200; i++ {
			gap := 5 + r.Intn(40)
			if i/120%2 == 0 {
				gap = 150 + r.Intn(300)
			}
			now += sim.Time(gap) * sim.Millisecond
			db.Consume(streamTrace(i, now, r))

			since := now - window
			loc.Advance(since)
			// Check every few steps (and always late in the stream) so both
			// the freshly-pending and the deep steady state are covered.
			if i%7 != 0 && i < 1100 {
				continue
			}
			checked++
			batch := db.Select(tracedb.Query{Since: since, IncludeDrop: true})
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
// started must converge to the same state as a fresh Select.
func TestLocalizerObserveReplaysExistingTraces(t *testing.T) {
	e := newExtractor(t)
	db := tracedb.New(64)
	r := rand.New(rand.NewSource(23))
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += sim.Time(10+r.Intn(20)) * sim.Millisecond
		db.Consume(streamTrace(i, now, r))
	}
	loc := NewLocalizer(e, 4)
	db.Observe(loc)
	since := now - 2*sim.Second
	loc.Advance(since)
	batch := db.Select(tracedb.Query{Since: since, IncludeDrop: true})
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
	db := tracedb.New(256)
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
