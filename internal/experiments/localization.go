package experiments

import (
	"fmt"

	"firm/internal/cluster"
	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/report"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// labelledSample is one (features, ground-truth) observation from a
// campaign window.
type labelledSample struct {
	feat    []float64
	culprit bool
}

// Fig9aResult is the per-anomaly-type ROC study (paper: avg AUC = 0.978,
// near-100% TPR at FPR 0.12-0.15).
type Fig9aResult struct {
	// AUC per anomaly type name.
	AUC map[string]float64
	// Curves per type: threshold-swept (FPR, TPR) points.
	Curves map[string][][2]float64
	AvgAUC float64
	// TPRAtFPR15 is the true-positive rate at false-positive rate ≤ 0.15.
	TPRAtFPR15 map[string]float64
}

// collectAnomalyEvents reproduces §4.2's single-anomaly protocol: anomalies
// are injected one at a time on a uniformly random victim with intensity
// drawn from [start-point, end-point] (the start-point being the intensity
// that triggers SLO violations — events that do not violate are discarded,
// exactly as the paper's ramp begins where violations begin). The scoring
// window includes a pre-injection baseline so per-instance variability
// features are well-defined.
func collectAnomalyEvents(spec *topology.Spec, seed int64, kind injector.Kind,
	events int, ext *detect.Extractor) ([]labelledSample, error) {

	// Each event is scored over a 2 s pre-injection baseline, the
	// injection and the second after it.
	injDur := 6 * sim.Second
	b, err := harness.New(harness.Options{Seed: seed, Spec: spec, SLOMargin: 1.6, TraceWindow: 2*sim.Second + injDur + sim.Second})
	if err != nil {
		return nil, err
	}
	b.AttachWorkload(workload.Constant{RPS: 150})
	targets := b.Containers()
	r := sim.Stream(seed, "fig9a-events")
	var samples []labelledSample
	for ev := 0; ev < events; ev++ {
		b.Eng.RunFor(3 * sim.Second) // calm period between events
		t0 := b.Eng.Now()
		tgt := targets[r.Intn(len(targets))]
		intensity := 0.7 + 0.3*r.Float64()
		b.Injector.Inject(injector.Injection{
			Kind: kind, Target: tgt, Intensity: intensity, Duration: injDur,
		})
		b.Eng.RunFor(injDur + sim.Second)
		window := b.DB.Select(tracedb.Query{Since: t0 - 2*sim.Second, IncludeDrop: true})
		if !detect.Violated(window, b.App.SLO) {
			continue // below the violation start-point: not a localization event
		}
		for _, c := range ext.Features(window) {
			samples = append(samples, labelledSample{
				feat:    []float64{c.RI, c.CI / detect.CIScale},
				culprit: c.Instance == tgt.ID,
			})
		}
	}
	return samples, nil
}

// fig9aKind is one anomaly type's ROC study (fields exported for the job
// set's gob wire form, wireEncode).
type fig9aKind struct {
	AUC   float64
	Curve [][2]float64
	TPR15 float64
}

// fig9Anomalies are Fig. 9's anomaly types in figure order: the per-type
// studies of 9(a) and the rows of the 9(b)/(c) injection schedule.
var fig9Anomalies = []injector.Kind{
	injector.NetworkDelay, injector.CPUStress, injector.LLCStress,
	injector.MemBWStress, injector.IOStress, injector.NetBWStress,
}

// fig9aJobs declares the Fig. 9(a) job list: the per-type studies are
// independent (each trains its own extractor on its own campaigns) and fan
// out as one job per anomaly kind, seeded from the campaign seed and the
// kind's name.
func fig9aJobs(_ Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[fig9aKind], error) {
	spec := topology.SocialNetwork()
	events := 20
	if sc.DurationMul >= 1 {
		events = 50
	}
	var jobs []runner.Job[fig9aKind]
	for _, kind := range fig9Anomalies {
		jobs = append(jobs, runner.Job[fig9aKind]{
			Key: runner.Key("fig9a", kind),
			Run: func(jobSeed int64) (fig9aKind, error) {
				return fig9aStudy(spec, jobSeed, kind, events)
			},
		})
	}
	return jobs, nil
}

// fig9aReduce merges the single-anomaly localization study per anomaly
// type (network delay, CPU, LLC, memory bandwidth, I/O, network bandwidth),
// each with the SVM decision threshold swept to trace its ROC curve.
func fig9aReduce(_ Scale, _ int64, _ noInput, studies []fig9aKind) (*Fig9aResult, error) {
	res := &Fig9aResult{
		AUC: map[string]float64{}, Curves: map[string][][2]float64{},
		TPRAtFPR15: map[string]float64{},
	}
	var aucs []float64
	for i, kind := range fig9Anomalies {
		name := kind.String()
		res.AUC[name] = studies[i].AUC
		res.Curves[name] = studies[i].Curve
		res.TPRAtFPR15[name] = studies[i].TPR15
		aucs = append(aucs, studies[i].AUC)
	}
	res.AvgAUC = stats.Mean(aucs)
	return res, nil
}

// fig9aStudy harvests a labelled training campaign, fits the incremental
// SVM over it (several SGD passes, as scikit's partial_fit loop does), then
// evaluates on a fresh campaign with a different derived seed.
func fig9aStudy(spec *topology.Spec, seed int64, kind injector.Kind, events int) (fig9aKind, error) {
	ext := detect.New(detect.DefaultConfig(), newSVM(seed))
	trainSamples, err := collectAnomalyEvents(spec, sim.DeriveSeed(seed, "train"), kind, events, ext)
	if err != nil {
		return fig9aKind{}, err
	}
	txs, tys, _ := toXY(trainSamples)
	if err := ext.SVM().FitBatch(txs, tys, 12, seed); err != nil {
		return fig9aKind{}, err
	}
	samples, err := collectAnomalyEvents(spec, sim.DeriveSeed(seed, "eval"), kind, events, ext)
	if err != nil {
		return fig9aKind{}, err
	}
	xs, ys, pos := toXY(samples)
	if pos == 0 || pos == len(samples) {
		return fig9aKind{}, fmt.Errorf("fig9a: %v: degenerate label set (%d/%d positive)", kind, pos, len(samples))
	}
	ths := thresholds(-3, 3, 61)
	fpr, tpr, err := ext.SVM().ROC(xs, ys, ths)
	if err != nil {
		return fig9aKind{}, err
	}
	auc, err := stats.AUC(fpr, tpr)
	if err != nil {
		return fig9aKind{}, err
	}
	st := fig9aKind{AUC: auc, TPR15: tprAt(fpr, tpr, 0.15)}
	for j := range fpr {
		st.Curve = append(st.Curve, [2]float64{fpr[j], tpr[j]})
	}
	return st, nil
}

// toXY converts labelled samples into SVM training arrays, returning the
// number of positives.
func toXY(samples []labelledSample) (xs [][]float64, ys []float64, pos int) {
	xs = make([][]float64, len(samples))
	ys = make([]float64, len(samples))
	for j, s := range samples {
		xs[j] = s.feat
		if s.culprit {
			ys[j] = 1
			pos++
		} else {
			ys[j] = -1
		}
	}
	return xs, ys, pos
}

func thresholds(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// tprAt returns the best TPR among points with FPR <= limit.
func tprAt(fpr, tpr []float64, limit float64) float64 {
	best := 0.0
	for i := range fpr {
		if fpr[i] <= limit && tpr[i] > best {
			best = tpr[i]
		}
	}
	return best
}

// String renders the Fig. 9(a) report.
func (r *Fig9aResult) String() string {
	t := &report.Table{
		Title:  "Fig 9(a): single-anomaly localization ROC",
		Header: []string{"anomaly", "AUC", "TPR @ FPR<=0.15"},
	}
	for _, name := range sortedKeys(r.AUC) {
		t.Add(name, f2(r.AUC[name]), f2(r.TPRAtFPR15[name]))
	}
	return t.String() + fmt.Sprintf("average AUC = %.3f (paper: 0.978)\n", r.AvgAUC)
}

// Report converts the Fig. 9(a) result into its typed record: one row and
// one ROC curve (x = FPR, y = TPR) per anomaly type.
func (r *Fig9aResult) Report() *report.Report {
	rep := report.New("fig9a")
	rep.Row("average").Val("auc", "", r.AvgAUC)
	for _, name := range sortedKeys(r.AUC) {
		rep.Row(name).
			Val("auc", "", r.AUC[name]).
			Val("tpr-at-fpr15", "frac", r.TPRAtFPR15[name])
		curve := r.Curves[name]
		fpr := make([]float64, len(curve))
		tpr := make([]float64, len(curve))
		for i, pt := range curve {
			fpr[i], tpr[i] = pt[0], pt[1]
		}
		rep.AddSeries("roc/"+name, "", fpr, tpr)
	}
	return rep
}

// Fig9bResult is the multi-anomaly localization accuracy across the four
// benchmarks and two processor ISAs (paper: 92.8-94.6%, overall 93.8%).
type Fig9bResult struct {
	// Accuracy[arch][benchmark] in [0,1].
	Accuracy map[string]map[string]float64
	Overall  float64
}

// fig9bArchs are Fig. 9(b)'s processor ISAs, in job order, and the node
// profile each one's 15-node cluster is built from.
var fig9bArchs = []struct {
	name    string
	profile cluster.HardwareProfile
}{{"x86", cluster.XeonProfile}, {"ppc64", cluster.PowerProfile}}

// fig9bWindows is the number of 10s injection windows per run at the scale.
func fig9bWindows(sc Scale) int {
	if sc.DurationMul < 1 {
		return 6
	}
	return 12
}

// fig9bJobs declares the Fig. 9(b) job list: one job per (ISA, benchmark)
// run, ISA-major, which is the layout fig9bReduce reads back. The two ISA
// arms of a benchmark share a seed derived from the benchmark's name, so
// both architectures face the same Fig. 9(c) injection schedule — the
// comparison the figure makes — while benchmarks stay decorrelated.
func fig9bJobs(_ Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[float64], error) {
	windows := fig9bWindows(sc)
	var jobs []runner.Job[float64]
	for _, arch := range fig9bArchs {
		nodes := repeatProfile(arch.profile, 15)
		for _, spec := range topology.All() {
			pairSeed := fig9bPairSeed(seed, spec.Name)
			jobs = append(jobs, runner.Job[float64]{
				Key: runner.Key("fig9b", arch.name, spec.Name),
				Run: func(int64) (float64, error) {
					return fig9bRun(spec, pairSeed, nodes, windows)
				},
			})
		}
	}
	return jobs, nil
}

// fig9bReduce scores instance-level localization accuracy per ISA and
// benchmark: the Fig. 9(c) campaign — consecutive 10s windows with
// per-type random intensities — on x86-only and ppc64-only clusters.
func fig9bReduce(_ Scale, _ int64, _ noInput, accs []float64) (*Fig9bResult, error) {
	res := &Fig9bResult{Accuracy: map[string]map[string]float64{}, Overall: stats.Mean(accs)}
	benches := topology.All()
	for ai, arch := range fig9bArchs {
		res.Accuracy[arch.name] = map[string]float64{}
		for bi, spec := range benches {
			res.Accuracy[arch.name][spec.Name] = accs[ai*len(benches)+bi]
		}
	}
	return res, nil
}

// fig9bPairSeed derives the seed the two ISA arms of one benchmark share;
// fig9c replays the first benchmark's schedule from the same derivation, so
// the two stay in lockstep by construction.
func fig9bPairSeed(seed int64, bench string) int64 {
	return sim.DeriveSeed(seed, runner.Key("fig9b", bench))
}

// fig9bTargetCount mirrors len(b.Containers()) for a fresh bench of spec.
// fig9bRun never scales, so the injection-target pool stays at the spec's
// initial replica count; fig9c's schedule replay must draw targets with the
// same modulus or math/rand's rejection resampling could consume a
// different number of underlying values and desynchronize the streams.
func fig9bTargetCount(spec *topology.Spec) int {
	n := 0
	for _, svc := range spec.Services {
		n += svc.Replicas
	}
	return n
}

func repeatProfile(p cluster.HardwareProfile, n int) []cluster.HardwareProfile {
	out := make([]cluster.HardwareProfile, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// fig9bRun executes the multi-anomaly schedule of Fig. 9(c): in each 10s
// window, every anomaly type is active with a random intensity on a random
// target; accuracy is the fraction of correct per-instance binary decisions.
func fig9bRun(spec *topology.Spec, seed int64, nodes []cluster.HardwareProfile, windows int) (float64, error) {
	// Each window's traces are read at its end.
	windowLen := 10 * sim.Second
	b, err := harness.New(harness.Options{Seed: seed, Spec: spec, SLOMargin: 1.6, Nodes: nodes, TraceWindow: windowLen})
	if err != nil {
		return 0, err
	}
	ext := detect.New(detect.DefaultConfig(), newSVM(seed))
	b.AttachWorkload(workload.Constant{RPS: 150})
	targets := b.Containers()
	r := sim.Stream(seed, "fig9b")

	// Warm-up + training phase: labelled windows are harvested, then the
	// incremental SVM is fitted over them before the scored phase.
	var trainSamples []labelledSample
	var correct, total int
	runWindow := func(train bool) {
		// Schedule this window's anomalies: each type at random intensity
		// on a random target (Fig. 9(c): intensity ∈ [0,1] per type).
		for _, k := range fig9Anomalies {
			intensity := r.Float64()
			if intensity < 0.35 {
				continue // type idle this window (below visible intensity)
			}
			tgt := targets[r.Intn(len(targets))]
			b.Injector.Inject(injector.Injection{
				Kind: k, Target: tgt, Intensity: intensity, Duration: windowLen,
			})
		}
		start := b.Eng.Now()
		b.Eng.RunFor(windowLen)
		now := b.Eng.Now()
		traces := b.DB.Select(tracedb.Query{Since: start})
		truth := b.Injector.ActiveDuringOverlap(start, now, (now-start)/2)
		if train {
			for _, c := range ext.Features(traces) {
				_, culprit := truth[c.Instance]
				trainSamples = append(trainSamples, labelledSample{
					feat: []float64{c.RI, c.CI / detect.CIScale}, culprit: culprit,
				})
			}
			return
		}
		for _, c := range ext.Candidates(traces) {
			_, culprit := truth[c.Instance]
			if c.Critical == culprit {
				correct++
			}
			total++
		}
	}
	for i := 0; i < 8; i++ {
		runWindow(true)
	}
	txs, tys, _ := toXY(trainSamples)
	if len(txs) > 0 {
		if err := ext.SVM().FitBatch(txs, tys, 10, seed); err != nil {
			return 0, err
		}
	}
	for i := 0; i < windows; i++ {
		runWindow(false)
	}
	if total == 0 {
		return 0, fmt.Errorf("fig9b: no candidates scored for %s", spec.Name)
	}
	return float64(correct) / float64(total), nil
}

// String renders the Fig. 9(b) report.
func (r *Fig9bResult) String() string {
	t := &report.Table{
		Title:  "Fig 9(b): multi-anomaly localization accuracy",
		Header: []string{"benchmark", "x86", "ppc64"},
	}
	for _, name := range sortedKeys(r.Accuracy["x86"]) {
		t.Add(name, pct(r.Accuracy["x86"][name]), pct(r.Accuracy["ppc64"][name]))
	}
	return t.String() + fmt.Sprintf("overall accuracy = %.1f%% (paper: 93.8%%)\n", 100*r.Overall)
}

// Report converts the Fig. 9(b) result into its typed record.
func (r *Fig9bResult) Report() *report.Report {
	rep := report.New("fig9b")
	rep.Row("overall").Val("accuracy", "frac", r.Overall)
	for _, name := range sortedKeys(r.Accuracy["x86"]) {
		rep.Row(name).
			Val("x86", "frac", r.Accuracy["x86"][name]).
			Val("ppc64", "frac", r.Accuracy["ppc64"][name])
	}
	return rep
}

// Fig9cResult is the anomaly-injection schedule itself (the experiment
// input visualized in the paper's Fig. 9(c)).
type Fig9cResult struct {
	Windows   []int
	Kinds     []string
	Intensity map[string][]float64 // kind → per-window intensity
}

// fig9c materializes the schedule fig9b runs (first benchmark's pair seed)
// for inspection. It has no cells, but takes the common experiment
// signature so it participates in Reportable, `-run all`, and the golden
// tests like every other experiment; the schedule itself is
// scale-independent (it mirrors fig9bRun's drawing protocol over a fixed
// 12-window horizon, Fig. 9(c)'s x-axis).
func fig9c(_ string, _ Exec, _ Scale, seed int64) (Reportable, error) {
	spec := topology.All()[0]
	targets := fig9bTargetCount(spec)
	r := sim.Stream(fig9bPairSeed(seed, spec.Name), "fig9b")
	res := &Fig9cResult{Intensity: map[string][]float64{}}
	for _, k := range fig9Anomalies {
		res.Kinds = append(res.Kinds, k.String())
	}
	for w := 0; w < 12; w++ {
		res.Windows = append(res.Windows, w+1)
		for _, k := range fig9Anomalies {
			intensity := r.Float64()
			if intensity < 0.35 {
				intensity = 0
			}
			res.Intensity[k.String()] = append(res.Intensity[k.String()], intensity)
			if intensity > 0 {
				r.Intn(targets) // target draw, consumed to mirror fig9bRun
			}
		}
	}
	return res, nil
}

// String renders the Fig. 9(c) schedule.
func (r *Fig9cResult) String() string {
	t := &report.Table{
		Title:  "Fig 9(c): multi-anomaly injection schedule (intensity per 10s window)",
		Header: append([]string{"anomaly"}, intStrings(r.Windows)...),
	}
	for _, k := range r.Kinds {
		row := []string{k}
		for _, v := range r.Intensity[k] {
			row = append(row, f2(v))
		}
		t.Add(row...)
	}
	return t.String()
}

// Report converts the Fig. 9(c) schedule into its typed record: one
// intensity series per anomaly kind over the window index.
func (r *Fig9cResult) Report() *report.Report {
	rep := report.New("fig9c")
	x := make([]float64, len(r.Windows))
	for i, w := range r.Windows {
		x[i] = float64(w)
	}
	for _, k := range r.Kinds {
		rep.AddSeries(k, "intensity", x, r.Intensity[k])
	}
	return rep
}

func intStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("T%d", x)
	}
	return out
}
