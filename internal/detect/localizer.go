package detect

import (
	"math"
	"slices"
	"strings"

	"firm/internal/cpath"
	"firm/internal/ring"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/svm"
	"firm/internal/trace"
)

// Localizer is the incremental counterpart of Extractor.Features/Candidates:
// it mirrors the trace store's current window as per-instance feature state
// — span-duration order statistics in a stats.Window, CP-correlation pairs
// in arrival-order rings — so the control loop's violated tick no longer
// re-selects the window, re-extracts every critical path, and rebuilds
// per-instance maps from scratch. Feed it as a tracedb.Observer; the owner
// advances the window bound each tick with Advance.
//
// Candidates is bit-identical to the batch path it replaces
// (Extractor.Candidates over a fresh Query{Since, IncludeDrop: true}
// selection): per-instance appends happen in the same trace/span order the
// batch loop used, percentiles come from stats.Window (bit-equal to
// stats.Percentile), and Pearson replicates stats.Pearson's summation order
// over the same sequences.
//
// Per-instance state is one sorted slice (stats.Window) and three rings: the
// same durations, and the pair series, in arrival order. Each holds one
// instance's spans of the last window — at most 997 on the benchmark's
// firm-loop, 417 on rl-train — which is what stats.Window's sorted slice is
// sized for; its comment has the crossover table.
//
// Critical-path extraction is lazy: stored traces enter a cheap pending
// ring and are folded into per-instance state only when Candidates needs
// them, each exactly once. Calm stretches (no violated ticks) pay nothing
// beyond ring pushes/pops; a burst of consecutive violated ticks extracts
// each trace's CP once instead of once per tick.
//
// Like Monitor, a Localizer is single-goroutine state owned by one
// controller. It must NOT hang off a shared Extractor: extractors are
// deliberately read-only so rollout workers can share them — the Localizer
// only reads the shared SVM through its private Scorer.
type Localizer struct {
	cfg    Config
	scorer *svm.Scorer

	// entries holds the in-window non-dropped traces in consume order
	// (= End order). The oldest proc entries have been folded into
	// per-instance state; the rest are pending.
	entries ring.Ring[locEntry]
	proc    int

	// insts is indexed by instance ID (cluster.Container.ID); nil where the
	// instance has not appeared in a trace.
	insts []*locInst

	// Per-trace processing scratch, reused across traces.
	onCP    []*locInst      // instances on the current trace's CP, first-seen order
	cp      cpath.Extractor // per-trace child index and path scratch
	touched []*locInst
	seq     uint64

	// Candidates scratch, reused across calls.
	out    []Candidate
	featB  []float64
	scores []float64
}

// locEntry is one in-window trace with the per-instance contributions its
// processing appended, so eviction removes exactly the same observations.
type locEntry struct {
	t        *trace.Trace
	end      sim.Time
	contribs []locContrib
	done     bool
}

// locContrib records one trace's appends to one instance's series.
type locContrib struct {
	st    *locInst
	durs  int32 // span self-durations appended
	pairs int32 // (perTrace, cpLats) pairs appended
	nonBg int32 // non-background span appearances
}

// locInst is one instance's windowed feature state.
type locInst struct {
	instance uint32
	service  uint32
	name     string // instance name: Candidates' sort key
	nonBg    int    // non-background span appearances in window

	durWin  *stats.Window      // span self-durations, order statistics
	durVals ring.Ring[float64] // same values in arrival order (for eviction)
	px, py  ring.Ring[float64] // (perTrace, cpLats) pairs in arrival order

	// Per-trace scratch owned by the processing loop.
	touchSeq                     uint64
	pendDur, pendPair, pendNonBg int32
	cpSeq                        uint64   // == Localizer.seq once on the current trace's CP
	cpSelf                       sim.Time // summed self time on that CP
}

// NewLocalizer builds an incremental localizer sharing e's configuration
// and (read-only) SVM. The capacity hint presizes the trace ring.
func NewLocalizer(e *Extractor, capHint int) *Localizer {
	return &Localizer{
		cfg:     e.cfg,
		scorer:  e.svm.NewScorer(),
		entries: ring.New[locEntry](0, max(capHint, 16)),
	}
}

// TraceStored implements tracedb.Observer. Dropped traces never contribute
// features (the batch loop skips them), so they are not tracked at all.
func (l *Localizer) TraceStored(t *trace.Trace) {
	if t.Dropped {
		return
	}
	e := l.entries.Push()
	e.t, e.end, e.done = t, t.End, false
	e.contribs = e.contribs[:0] // keep capacity from the slot's last tenant
}

// TraceEvicted implements tracedb.Observer: the store's ring dropped its
// oldest trace. Evictions arrive in consume order, so the only candidate is
// our front entry (dropped traces were never tracked and simply miss).
func (l *Localizer) TraceEvicted(t *trace.Trace) {
	if l.entries.Len() > 0 && l.entries.At(0).t == t {
		l.pop()
	}
}

// Advance expires entries whose trace ended before since — the incremental
// equivalent of re-selecting Query{Since: since}. Call it every tick (not
// only violated ones) so pending state stays bounded by the window.
func (l *Localizer) Advance(since sim.Time) {
	for l.entries.Len() > 0 && l.entries.At(0).end < since {
		l.pop()
	}
}

// Len returns the number of in-window (non-dropped) traces.
func (l *Localizer) Len() int { return l.entries.Len() }

func (l *Localizer) pop() {
	e := l.entries.Pop()
	if e.done {
		for _, c := range e.contribs {
			st := c.st
			for k := int32(0); k < c.durs; k++ {
				st.durWin.Remove(*st.durVals.Pop())
			}
			for k := int32(0); k < c.pairs; k++ {
				st.px.Pop()
				st.py.Pop()
			}
			st.nonBg -= int(c.nonBg)
		}
		l.proc--
	}
	e.t = nil // release the trace for GC
}

// inst returns the state of an instance seen in a span of t, creating it
// (and resolving its name, once) on first sight.
func (l *Localizer) inst(t *trace.Trace, instance, service uint32) *locInst {
	for int(instance) >= len(l.insts) {
		l.insts = append(l.insts, nil)
	}
	st := l.insts[instance]
	if st == nil {
		st = &locInst{instance: instance, service: service,
			name: t.Names.InstanceName(instance), durWin: stats.NewWindow(64)}
		l.insts[instance] = st
	}
	return st
}

// touch marks st as contributing to the trace being processed.
func (l *Localizer) touch(st *locInst) *locInst {
	if st.touchSeq != l.seq {
		st.touchSeq = l.seq
		st.pendDur, st.pendPair, st.pendNonBg = 0, 0, 0
		l.touched = append(l.touched, st)
	}
	return st
}

// process folds one trace into per-instance state, appending to each series
// in exactly the order Extractor.Features would have: self-durations per
// span in span order, then the instance's aggregated on-CP pair, then one
// pair per background span in span order. Per-series order is all that
// matters for bitwise equality — different instances' series are disjoint
// accumulators.
func (l *Localizer) process(e *locEntry) {
	t := e.t
	l.seq++
	l.touched = l.touched[:0]

	p := l.cp.Extract(t)
	e2e := t.Latency().Millis()
	for _, s := range t.Spans {
		st := l.touch(l.inst(t, s.Instance, s.Service))
		d := l.cp.Kids.SelfDuration(s).Millis()
		*st.durVals.Push() = d
		st.durWin.Add(d)
		st.pendDur++
		if !s.Background {
			st.nonBg++
			st.pendNonBg++
		}
	}
	l.onCP = l.onCP[:0]
	for _, s := range p.Spans {
		st := l.insts[s.Instance]
		if st.cpSeq != l.seq {
			st.cpSeq, st.cpSelf = l.seq, 0
			l.onCP = append(l.onCP, st)
		}
		st.cpSelf += l.cp.Kids.SelfDuration(s)
	}
	for _, st := range l.onCP {
		*st.px.Push() = st.cpSelf.Millis()
		*st.py.Push() = e2e
		st.pendPair++
	}
	for _, s := range t.Spans {
		if s.Background {
			st := l.insts[s.Instance]
			*st.px.Push() = l.cp.Kids.SelfDuration(s).Millis()
			*st.py.Push() = e2e
			st.pendPair++
		}
	}
	for _, st := range l.touched {
		e.contribs = append(e.contribs, locContrib{
			st: st, durs: st.pendDur, pairs: st.pendPair, nonBg: st.pendNonBg,
		})
	}
	e.done = true
}

// Candidates folds any pending traces into per-instance state, then scores
// every qualifying instance — output identical to
// Extractor.Candidates(Select(window)). The returned slice is reused across
// calls; copy if retained.
func (l *Localizer) Candidates() []Candidate {
	for l.proc < l.entries.Len() {
		l.process(l.entries.At(l.proc))
		l.proc++
	}

	l.out = l.out[:0]
	for _, st := range l.insts {
		if st == nil || st.durVals.Len() < l.cfg.MinSamples || st.px.Len() < l.cfg.MinSamples {
			continue
		}
		if st.nonBg == 0 && !l.cfg.IncludeBackground {
			continue
		}
		ri := pearsonRings(&st.px, &st.py)
		t50 := st.durWin.Percentile(50)
		t99 := st.durWin.Percentile(99)
		ci := 1.0
		if t50 > 0 {
			ci = t99 / t50
		}
		l.out = append(l.out, Candidate{Instance: st.instance, Service: st.service, RI: ri, CI: ci})
	}
	// Instance names are unique, so the unstable sort is total — same order
	// as the batch path's sort.
	insts := l.insts
	slices.SortFunc(l.out, func(a, b Candidate) int {
		return strings.Compare(insts[a.Instance].name, insts[b.Instance].name)
	})

	nb := len(l.out)
	if cap(l.featB) < 2*nb {
		l.featB = make([]float64, 2*nb)
		l.scores = make([]float64, nb)
	}
	featB, scores := l.featB[:2*nb], l.scores[:nb]
	for i := range l.out {
		featB[2*i] = l.out[i].RI
		featB[2*i+1] = l.out[i].CI / l.cfg.CIScale
	}
	// A dimension mismatch leaves every score zero — exactly the batch
	// path's per-candidate skip (the shared featVec shape fails for all
	// candidates or none).
	if err := l.scorer.DecisionBatch(featB, nb, scores); err == nil {
		for i := range l.out {
			l.out[i].Score = scores[i]
			l.out[i].Critical = scores[i] > 0
		}
	}
	return l.out
}

// pearsonRings replicates stats.Pearson — same two-pass summation order —
// over ring-ordered pair series. Series are non-empty (MinSamples gates
// callers) and equal-length by construction, so only the constant-input
// zero case survives from the batch path's error handling.
func pearsonRings(xs, ys *ring.Ring[float64]) float64 {
	n := xs.Len()
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += *xs.At(i)
	}
	for i := 0; i < n; i++ {
		sy += *ys.At(i)
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := *xs.At(i)-mx, *ys.At(i)-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
