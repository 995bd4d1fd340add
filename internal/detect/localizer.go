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
// it mirrors the trace store's current window as one observation log, so
// the control loop's violated tick no longer re-selects the window or
// re-extracts every critical path. Feed it as a tracedb.Observer; the owner
// advances the window bound each tick with Advance.
//
// Candidates is bit-identical to the batch path it replaces
// (Extractor.Candidates over a fresh Query{Since, IncludeDrop: true}
// selection): every instance's series is read in the same trace/span order
// the batch loop appends it, percentiles come from stats.PercentileSelect
// (the selection stats.Percentile runs), and Pearson replicates
// stats.Pearson's summation order.
//
// The log is one ring shared by all instances, in consume order: every
// processed trace's span self-durations, each tagged with its instance and
// whether the span is background or on the trace's critical path; the
// trace's end-to-end latency is kept once, on its entry. That is all a
// CP-correlation pair is made of — an instance's summed self time on the CP,
// or one background span's, against the trace's latency — so the pairs are
// rebuilt from the log rather than stored. Each entry records how many
// observations its trace pushed, so expiry pops a count off the ring's
// front. Candidates reads the log in passes: counts, pair sums and the
// qualifying instances' durations (one stable scatter into reused scratch,
// where selection reorders them), then the Pearson deviations. Per-span work
// happens once per trace; a rescore rescans the window.
//
// Critical-path extraction is lazy: stored traces enter a cheap pending
// ring and are folded into the log only when Candidates needs them, each
// exactly once. Calm stretches (no violated ticks) pay nothing beyond ring
// pushes/pops; a burst of consecutive violated ticks extracts each trace's
// CP once instead of once per tick.
//
// Like Monitor, a Localizer is single-goroutine state owned by one
// controller. It must NOT hang off a shared Extractor: extractors are
// deliberately read-only so rollout workers can share them — the Localizer
// only reads the shared SVM through its private Scorer.
type Localizer struct {
	cfg    Config
	scorer *svm.Scorer

	// entries holds the in-window non-dropped traces in consume order
	// (= End order). The oldest proc entries have been folded into the
	// log; the rest are pending.
	entries ring.Ring[locEntry]
	proc    int
	// obs is the processed entries' observations, pushed in processing
	// order — consume order — so the front entry's are always at the front.
	obs ring.Ring[locObs]

	// insts is indexed by instance ID (cluster.Container.ID); seen is false
	// where the instance has not appeared in a trace.
	insts []locInst

	// process scratch, reused across traces.
	cp   cpath.Extractor // per-trace child index and path scratch
	self []sim.Time      // the trace's span self-durations, by span
	onCP []bool          // whether each span is on the trace's CP

	// Candidates scratch, reused across calls: the qualifying instances'
	// durations, each one contiguous segment; the instances on a logged
	// trace's CP, first-seen order, and that trace's stamp (locInst.cpSeq).
	durVals []float64
	touched []uint32
	seq     uint64
	out     []Candidate
	featB   []float64
	scores  []float64
}

// locEntry is one in-window trace: its end-to-end latency (ms), the y of
// every pair it contributes, and how many observations its processing
// pushed onto Localizer.obs — one per span, bg of them background — so
// eviction removes exactly those.
type locEntry struct {
	t     *trace.Trace
	e2e   float64
	n, bg int32
}

// locObs is one span's self-duration (µs: at most the span's Dur) and what
// it counts toward.
type locObs struct {
	inst   uint32
	us     uint32
	bg, cp bool
}

// locInst is what the localizer knows of one instance, and its scratch.
type locInst struct {
	seen    bool
	service uint32
	name    string // instance name: Candidates' sort key

	// Candidates: the instance's observations in the window and the
	// running sums of stats.Pearson over its pairs (sx and sy become the
	// means once counted); at for a qualifying instance is its write
	// cursor into durVals, -1 otherwise.
	nDur, nonBg, nPair int32
	at                 int32
	sx, sy             float64
	sxy, sxx, syy      float64

	// The pair rebuild: == Localizer.seq once on the current trace's CP,
	// and the summed self time there.
	cpSeq uint64
	cpSum sim.Time
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

// Reset empties the localizer and binds it to e, keeping its rings and
// scratch: it is then what NewLocalizer(e, ·) builds.
func (l *Localizer) Reset(e *Extractor) {
	l.cfg, l.scorer = e.cfg, e.svm.NewScorer()
	l.entries.Reset()
	l.obs.Reset()
	l.proc, l.seq = 0, 0
	l.insts = l.insts[:0]
}

// TraceStored implements tracedb.Observer. Dropped traces never contribute
// features (the batch loop skips them), so they are not tracked at all.
func (l *Localizer) TraceStored(t *trace.Trace) {
	if t.Dropped {
		return
	}
	*l.entries.Push() = locEntry{t: t}
}

// TraceEvicted implements tracedb.Observer: the store evicted its oldest
// trace. Evictions arrive in consume order, so the only candidate is
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
	for l.entries.Len() > 0 && l.entries.At(0).t.End < since {
		l.pop()
	}
}

// Len returns the number of in-window (non-dropped) traces.
func (l *Localizer) Len() int { return l.entries.Len() }

func (l *Localizer) pop() {
	e := l.entries.Pop()
	// The front entry is processed exactly when any is; one evicted before
	// it was processed pushed nothing.
	if l.proc > 0 {
		for range e.n {
			l.obs.Pop()
		}
		l.proc--
	}
	e.t = nil // release the trace for GC
}

// process folds one trace into the log: one observation per span, in span
// order.
func (l *Localizer) process(e *locEntry) {
	t := e.t
	p := l.cp.Extract(t)
	spans := l.cp.Kids.Spans()
	l.self = l.cp.Kids.SelfDurations(l.self)
	l.onCP = slices.Grow(l.onCP[:0], len(spans))[:len(spans)]
	clear(l.onCP)
	for _, i := range p.Index {
		l.onCP[i] = true
	}
	for i, s := range spans {
		for int(s.Instance) >= len(l.insts) {
			l.insts = append(l.insts, locInst{})
		}
		if st := &l.insts[s.Instance]; !st.seen {
			st.seen, st.service, st.name = true, uint32(s.Service), t.Names.InstanceName(s.Instance)
		}
		*l.obs.Push() = locObs{inst: s.Instance, us: uint32(l.self[i]), bg: s.Background, cp: l.onCP[i]}
		if s.Background {
			e.bg++
		}
	}
	e.e2e, e.n = t.Latency().Millis(), int32(len(spans))
}

// Candidates folds any pending traces into the log, then scores every
// qualifying instance — output identical to
// Extractor.Candidates(Select(window)). The returned slice is reused across
// calls; copy if retained.
func (l *Localizer) Candidates() []Candidate {
	for l.proc < l.entries.Len() {
		l.process(l.entries.At(l.proc))
		l.proc++
	}
	insts := l.insts
	for i := range insts {
		st := &insts[i]
		st.nDur, st.nonBg, st.nPair = 0, 0, 0
		st.sx, st.sy, st.sxy, st.sxx, st.syy = 0, 0, 0, 0, 0
		st.at = -1
	}
	l.readLog(false)

	// Give each qualifying instance its segment of durVals.
	l.out = l.out[:0]
	nd := 0
	for id := range insts {
		st := &insts[id]
		if st.nDur < minSamples || st.nPair < minSamples || (st.nonBg == 0 && !l.cfg.IncludeBackground) {
			continue
		}
		st.at = int32(nd)
		nd += int(st.nDur)
		st.sx /= float64(st.nPair) // the sums become the means
		st.sy /= float64(st.nPair)
		l.out = append(l.out, Candidate{Instance: uint32(id), Service: st.service})
	}
	l.durVals = slices.Grow(l.durVals[:0], nd)[:nd]
	l.readLog(true)

	for i := range l.out {
		c := &l.out[i]
		st := &insts[c.Instance]
		if st.sxx != 0 && st.syy != 0 {
			c.RI = st.sxy / math.Sqrt(st.sxx*st.syy)
		}
		// The cursor now stands at the end of the segment.
		durs := l.durVals[st.at-st.nDur : st.at]
		t50 := stats.PercentileSelect(durs, 50)
		t99 := stats.PercentileSelect(durs, 99)
		c.CI = 1.0
		if t50 > 0 {
			c.CI = t99 / t50
		}
	}
	// Instance names are unique, so the unstable sort is total — same order
	// as the batch path's sort.
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
		featB[2*i+1] = l.out[i].CI / CIScale
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

// readLog reads the log entry by entry, rebuilding each trace's
// CP-correlation pairs in the order Extractor.Features appends them: per
// trace, each instance's summed self time on the CP, then one pair per
// background span in span order. Self times are summed in µs, where
// addition is exact, so a CP sum does not depend on the order its spans are
// visited in. It is stats.Pearson's two passes, in its summation order: the
// first counts every instance's observations and sums its pairs' x and y;
// the second, for qualifying instances, scatters their durations into
// their durVals segments — stably, in the log's order, which is the batch
// loop's append order — and sums the products of their pairs' deviations
// from the means.
func (l *Localizer) readLog(deviations bool) {
	insts := l.insts
	j := 0
	for i := 0; i < l.proc; i++ {
		e := l.entries.At(i)
		end := j + int(e.n)
		l.seq++
		l.touched = l.touched[:0]
		for k := j; k < end; k++ {
			o := l.obs.At(k)
			st := &insts[o.inst]
			if !deviations {
				st.nDur++
				if !o.bg {
					st.nonBg++
				}
			} else if st.at >= 0 {
				l.durVals[st.at] = sim.Time(o.us).Millis()
				st.at++
			}
			if o.cp {
				if st.cpSeq != l.seq {
					st.cpSeq, st.cpSum = l.seq, 0
					l.touched = append(l.touched, o.inst)
				}
				st.cpSum += sim.Time(o.us)
			}
		}
		for _, id := range l.touched {
			st := &insts[id]
			st.pair(deviations, st.cpSum.Millis(), e.e2e)
		}
		if e.bg > 0 {
			for k := j; k < end; k++ {
				if o := l.obs.At(k); o.bg {
					insts[o.inst].pair(deviations, sim.Time(o.us).Millis(), e.e2e)
				}
			}
		}
		j = end
	}
}

// pair adds one (x, y) pair to the instance's Pearson sums: on the first
// pass to the count and the sums of x and y, on the second — a qualifying
// instance only — to the sums of the deviations' products.
func (st *locInst) pair(deviations bool, x, y float64) {
	if !deviations {
		st.nPair++
		st.sx += x
		st.sy += y
		return
	}
	if st.at < 0 {
		return
	}
	dx, dy := x-st.sx, y-st.sy
	st.sxy += dx * dy
	st.sxx += dx * dx
	st.syy += dy * dy
}
