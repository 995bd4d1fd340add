package detect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"firm/internal/sim"
	"firm/internal/svm"
	"firm/internal/trace"
)

// nameTable is the trace.Names of the hand-built traces below: an ID is a
// position in the table. Instance IDs are deliberately out of name order —
// "A-1" has a larger ID than "A-2" — so ordering candidates by ID cannot
// pass for ordering them by name.
type nameTable struct{ svc, inst []string }

func (n nameTable) ServiceName(id uint32) string  { return n.svc[id] }
func (n nameTable) InstanceName(id uint32) string { return n.inst[id] }

var testNames = nameTable{
	svc:  []string{"root", "A", "B", "gc", "W"},
	inst: []string{1: "root-1", 2: "B-1", 3: "A-2", 4: "gc-1", 5: "A-1", 6: "W-1"},
}

// on returns a span's identity fields: the service's ID and the ID of its
// instance "<service>-<replica>".
func on(service string, replica int) (svc uint16, inst uint32) {
	return uint16(slices.Index(testNames.svc, service)),
		uint32(slices.Index(testNames.inst, fmt.Sprintf("%s-%d", service, replica)))
}

// serviceOf names a candidate's service.
func serviceOf(c Candidate) string { return testNames.ServiceName(c.Service) }

// window synthesizes n traces: root → A → B sequential chain where A's
// latency is bimodal/congested (culprit signature) and B's is constant.
func window(n int, congested bool, r *rand.Rand) []*trace.Trace {
	var out []*trace.Trace
	for i := 0; i < n; i++ {
		aDur := sim.FromMillis(10 + r.Float64()*2)
		if congested && r.Float64() < 0.2 {
			aDur = sim.FromMillis(80 + r.Float64()*40) // tail spikes
		}
		bDur := sim.FromMillis(20 + r.Float64()*0.5)
		aStart := sim.FromMillis(1)
		aEnd := aStart + aDur
		bStart := aEnd + sim.FromMillis(0.2)
		bEnd := bStart + bDur
		rootEnd := bEnd + sim.FromMillis(1)
		spans := []trace.Span{
			{ID: 1, Parent: 0, Start: 0, Dur: uint32(rootEnd)},
			{ID: 2, Parent: 1, Start: aStart, Dur: uint32(aDur)},
			{ID: 3, Parent: 1, Start: bStart, Dur: uint32(bDur)},
		}
		spans[0].Service, spans[0].Instance = on("root", 1)
		spans[1].Service, spans[1].Instance = on("A", 1)
		spans[2].Service, spans[2].Instance = on("B", 1)
		tr := &trace.Trace{
			ID: trace.TraceID(i + 1), Type: "req", Names: testNames,
			Start: 0, End: rootEnd,
		}
		tr.Seal(spans)
		out = append(out, tr)
	}
	return out
}

func newExtractor(t testing.TB) *Extractor {
	t.Helper()
	model := svm.New(svm.DefaultConfig())
	e := New(DefaultConfig(), model)
	if err := e.Pretrain(1, 4000); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestViolated(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	traces := window(50, false, r)
	if Violated(traces, sim.Minute) {
		t.Fatal("quiet window must not violate a huge SLO")
	}
	if !Violated(traces, sim.Microsecond) {
		t.Fatal("tiny SLO must violate")
	}
	dropped := &trace.Trace{ID: 99, Dropped: true}
	if !Violated([]*trace.Trace{dropped}, sim.Minute) {
		t.Fatal("dropped request must count as violation")
	}
	if Violated(nil, sim.Second) {
		t.Fatal("empty window is not a violation")
	}
}

func TestFeaturesSeparateCulpritFromSteady(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	traces := window(300, true, r)
	e := newExtractor(t)
	cands := e.Candidates(traces)
	var a, b *Candidate
	for i := range cands {
		switch serviceOf(cands[i]) {
		case "A":
			a = &cands[i]
		case "B":
			b = &cands[i]
		}
	}
	if a == nil || b == nil {
		t.Fatalf("missing candidates: %+v", cands)
	}
	if a.CI < 3 {
		t.Fatalf("congested A should have high CI, got %v", a.CI)
	}
	if b.CI > 1.5 {
		t.Fatalf("steady B should have CI near 1, got %v", b.CI)
	}
	if a.RI < 0.8 {
		t.Fatalf("A explains the e2e variance, RI = %v", a.RI)
	}
	if b.RI > 0.5 {
		t.Fatalf("B should not explain variance, RI = %v", b.RI)
	}
}

func TestCandidatesFlagOnlyCulprit(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	traces := window(300, true, r)
	e := newExtractor(t)
	cands := e.Candidates(traces)
	crit := map[string]bool{}
	for _, c := range cands {
		crit[serviceOf(c)] = c.Critical
	}
	if !crit["A"] {
		t.Fatalf("culprit A not flagged: %+v", cands)
	}
	if crit["B"] {
		t.Fatalf("steady B wrongly flagged: %+v", cands)
	}
}

func TestQuietWindowNoCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	traces := window(300, false, r)
	e := newExtractor(t)
	for _, c := range e.Candidates(traces) {
		if c.Critical {
			t.Fatalf("quiet window flagged %s (RI=%v CI=%v score=%v)",
				serviceOf(c), c.RI, c.CI, c.Score)
		}
	}
}

func TestThresholdSweepMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	traces := window(300, true, r)
	e := newExtractor(t)
	countAt := func(th float64) int {
		n := 0
		for _, c := range e.Candidates(traces) {
			if c.Score > th {
				n++
			}
		}
		return n
	}
	if countAt(-10) < countAt(0) || countAt(0) < countAt(10) {
		t.Fatal("lower thresholds must flag at least as many candidates")
	}
	if countAt(-10) == 0 {
		t.Fatal("threshold -10 should flag everything scored")
	}
	if countAt(10) != 0 {
		t.Fatal("threshold 10 should flag nothing")
	}
}

func TestMinSamplesFilters(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	traces := window(3, true, r) // below minSamples=8
	e := newExtractor(t)
	if cands := e.Candidates(traces); len(cands) != 0 {
		t.Fatalf("under-sampled instances scored: %+v", cands)
	}
}

func TestBackgroundInstancesScored(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	base := window(200, false, r)
	// Attach a congested background span to each trace.
	for i, tr := range base {
		dur := sim.FromMillis(5)
		if r.Float64() < 0.25 {
			dur = sim.FromMillis(100)
		}
		w := trace.Span{ID: 4, Parent: 1, Start: sim.FromMillis(2), Dur: uint32(dur), Background: true}
		w.Service, w.Instance = on("W", 1)
		tr.Seal(append(tr.AppendSpans(nil), w))
		_ = i
	}
	e := newExtractor(t)
	found := false
	for _, c := range e.Candidates(base) {
		if serviceOf(c) == "W" {
			found = true
			if c.CI < 3 {
				t.Fatalf("background W should show high CI, got %v", c.CI)
			}
		}
	}
	if !found {
		t.Fatal("background instance not scored")
	}

	cfg := DefaultConfig()
	cfg.IncludeBackground = false
	e2 := New(cfg, svm.New(svm.DefaultConfig()))
	for _, c := range e2.Candidates(base) {
		if serviceOf(c) == "W" {
			t.Fatal("background scored despite IncludeBackground=false")
		}
	}
}

func TestTrainOnline(t *testing.T) {
	e := New(DefaultConfig(), svm.New(svm.DefaultConfig()))
	// Train with inverted labels: low CI is "culprit". The extractor must
	// follow its training data rather than a hard-coded rule.
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 3000; i++ {
		lowCI := Candidate{RI: r.Float64()*0.3 + 0.0, CI: 1 + r.Float64()}
		highCI := Candidate{RI: 0.7 + r.Float64()*0.3, CI: 6 + r.Float64()*6}
		if err := e.Train(lowCI, true); err != nil {
			t.Fatal(err)
		}
		if err := e.Train(highCI, false); err != nil {
			t.Fatal(err)
		}
	}
	score1, _ := e.SVM().Decision([]float64{0.1, 1.5 / 5})
	score2, _ := e.SVM().Decision([]float64{0.9, 9.0 / 5})
	if score1 <= 0 || score2 >= 0 {
		t.Fatalf("online training did not shape the boundary: %v %v", score1, score2)
	}
}

func TestDroppedTracesIgnoredInFeatures(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	traces := window(100, true, r)
	for _, tr := range traces {
		tr.Dropped = true
	}
	e := newExtractor(t)
	if cands := e.Candidates(traces); len(cands) != 0 {
		t.Fatalf("dropped traces produced features: %+v", cands)
	}
}

func TestDeterministicCandidateOrder(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	traces := window(100, true, r)
	e := newExtractor(t)
	a := e.Candidates(traces)
	b := e.Candidates(traces)
	if len(a) != len(b) {
		t.Fatal("nondeterministic feature count")
	}
	for i := range a {
		if a[i].Instance != b[i].Instance {
			t.Fatal("nondeterministic order")
		}
	}
}
