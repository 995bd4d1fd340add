package experiments

import (
	"fmt"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/cpath"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/report"
	"firm/internal/rl"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Fig1Result reproduces the motivating experiment: tail-latency spikes under
// memory-bandwidth contention, with and without FIRM, alongside the CPU
// utilization (which stays flat — the reason the K8s autoscaler misses the
// spike) and the per-core DRAM access counter (which surfaces it).
type Fig1Result struct {
	TimesSec []float64
	// Per-second series, one pair per policy arm.
	P99NoFIRM, P99FIRM       []float64
	CPUUtilPct               []float64 // without FIRM (flat through the spike)
	PerCoreDRAM              []float64 // without FIRM (spikes with the anomaly)
	AnomalyStart, AnomalyEnd float64
	// PeakP99 ratios quantify the mitigation.
	PeakNoFIRM, PeakFIRM float64
}

// fig1Window is Fig. 1's run length and anomaly window at scale sc.
func fig1Window(sc Scale) (dur, start, length sim.Time) {
	dur = sc.dur(300 * sim.Second)
	return dur, dur / 5, 2 * dur / 5
}

// fig1Arm is one policy arm's per-second series (fields exported for the
// job set's wire form).
type fig1Arm struct{ P99s, CPU, DRAM []float64 }

// fig1Jobs declares Fig. 1's two policy arms. They are paired on seed+1
// (identical workload and anomaly realization; only the controller
// differs). base is the trained agent the FIRM arm loads; it evaluates with
// Training off, so only the actor weights matter.
func fig1Jobs(_ Exec, sc Scale, seed int64, base rl.Snapshot) ([]runner.Job[fig1Arm], error) {
	dur, anomalyStart, anomalyDur := fig1Window(sc)
	run := func(seed int64, withFIRM bool) (arm fig1Arm, err error) {
		b, err := harness.New(harness.Options{
			Seed: seed, Spec: topology.SocialNetwork(), SLOMargin: 1.6,
		})
		if err != nil {
			return arm, err
		}
		b.AttachWorkload(workload.Constant{RPS: 250})
		if withFIRM {
			a, err := loadAgent(base, seed)
			if err != nil {
				return arm, err
			}
			b.AttachFIRM(core.DefaultConfig(), core.SharedAgent{A: a}, nil)
		}
		victim := b.Cluster.ReplicaSet("post-storage-mongodb").Containers()[0]
		b.Eng.Schedule(anomalyStart, func() {
			b.Injector.Inject(injector.Injection{
				Kind: injector.MemBWStress, Target: victim,
				Intensity: 1, Duration: anomalyDur,
			})
			b.Injector.Inject(injector.Injection{
				Kind: injector.IOStress, Target: victim,
				Intensity: 0.8, Duration: anomalyDur,
			})
		})
		node := victim.Node()
		tick := sim.NewTicker(b.Eng, sim.Second, func() {
			lats := b.DB.Latencies(tracedb.Query{Since: b.Eng.Now() - 2*sim.Second})
			if len(lats) > 0 {
				arm.P99s = append(arm.P99s, stats.Percentile(lats, 99))
			} else {
				arm.P99s = append(arm.P99s, 0)
			}
			arm.CPU = append(arm.CPU, 100*node.Utilization()[cluster.CPU])
			arm.DRAM = append(arm.DRAM, node.PerCoreDRAMAccess())
		})
		tick.Start()
		b.Eng.RunFor(dur)
		return arm, nil
	}
	return []runner.Job[fig1Arm]{
		{Key: "fig1/no-firm", Run: func(int64) (fig1Arm, error) { return run(seed+1, false) }},
		{Key: "fig1/firm", Run: func(int64) (fig1Arm, error) { return run(seed+1, true) }},
	}, nil
}

// fig1Reduce merges Fig. 1's arms: Social Network under constant load with
// a mem-BW anomaly injected mid-run, once unmanaged and once under a
// trained FIRM agent.
func fig1Reduce(sc Scale, _ int64, _ rl.Snapshot, arms []fig1Arm) (*Fig1Result, error) {
	_, anomalyStart, anomalyDur := fig1Window(sc)
	noP99, cpu, dram, yesP99 := arms[0].P99s, arms[0].CPU, arms[0].DRAM, arms[1].P99s
	res := &Fig1Result{
		P99NoFIRM: noP99, P99FIRM: yesP99, CPUUtilPct: cpu, PerCoreDRAM: dram,
		AnomalyStart: anomalyStart.Seconds(),
		AnomalyEnd:   (anomalyStart + anomalyDur).Seconds(),
	}
	for i := range noP99 {
		res.TimesSec = append(res.TimesSec, float64(i+1))
	}
	lo, hi := int(res.AnomalyStart), int(res.AnomalyEnd)
	res.PeakNoFIRM = maxIn(noP99, lo, hi)
	res.PeakFIRM = maxIn(yesP99, lo, hi)
	return res, nil
}

func maxIn(xs []float64, lo, hi int) float64 {
	var m float64
	for i := lo; i < hi && i < len(xs); i++ {
		if xs[i] > m {
			m = xs[i]
		}
	}
	return m
}

// String renders the Fig. 1 report.
func (r *Fig1Result) String() string {
	s := fmt.Sprintf("Fig 1: mem-BW contention on Social Network (anomaly %.0f-%.0fs)\n",
		r.AnomalyStart, r.AnomalyEnd)
	s += fmt.Sprintf("  peak p99 during anomaly: without FIRM %.1fms, with FIRM %.1fms (%.1fx better)\n",
		r.PeakNoFIRM, r.PeakFIRM, ratio(r.PeakNoFIRM, r.PeakFIRM))
	pre := int(r.AnomalyStart)
	s += fmt.Sprintf("  CPU util before/during anomaly: %.1f%% / %.1f%% (flat: autoscaler blind)\n",
		stats.Mean(r.CPUUtilPct[:pre]), stats.Mean(r.CPUUtilPct[pre:int(r.AnomalyEnd)]))
	s += fmt.Sprintf("  per-core DRAM before/during: %.0f / %.0f (contention visible)\n",
		stats.Mean(r.PerCoreDRAM[:pre]), stats.Mean(r.PerCoreDRAM[pre:int(r.AnomalyEnd)]))
	return s
}

// Report converts the Fig. 1 result into its typed record.
func (r *Fig1Result) Report() *report.Report {
	rep := report.New("fig1")
	rep.Row("anomaly").
		Val("start", "s", r.AnomalyStart).
		Val("end", "s", r.AnomalyEnd)
	rep.Row("peak-p99").
		Val("no-firm", "ms", r.PeakNoFIRM).
		Val("firm", "ms", r.PeakFIRM).
		Val("improvement", "x", ratio(r.PeakNoFIRM, r.PeakFIRM))
	rep.AddSeries("p99-no-firm", "ms", r.TimesSec, r.P99NoFIRM)
	rep.AddSeries("p99-firm", "ms", r.TimesSec, r.P99FIRM)
	rep.AddSeries("cpu-util", "%", r.TimesSec, r.CPUUtilPct)
	rep.AddSeries("per-core-dram", "", r.TimesSec, r.PerCoreDRAM)
	return rep
}

// Table1Result reproduces Table 1: individual and end-to-end latencies for
// the compose-post request as the CP shifts under injections at V, U, T.
type Table1Result struct {
	// Rows indexed by injected service; values are mean latency (ms) per
	// observed service plus the mean end-to-end total.
	Services []string // column order: N V U I T C
	Rows     map[string]map[string]float64
	Totals   map[string]float64
	// CPSignatures maps injected service → dominant critical path.
	CPSignatures map[string]string
}

var table1Cols = map[string]string{
	"nginx": "N", "video": "V", "user-tag": "U", "unique-id": "I",
	"text": "T", "compose-post": "C",
}

// table1Victims are the injected services of Table 1's rows.
var table1Victims = []string{"video", "user-tag", "text"}

// table1Row is one victim's measurements (fields exported for the job
// set's gob wire form, wireEncode).
type table1Row struct {
	Row   map[string]float64
	Total float64
	Sig   string
}

// table1Jobs declares the Table 1 job list: one independent simulation per
// injected victim. Every victim keeps the experiment seed so the rows stay
// paired on the same workload realization (the table compares cells across
// rows).
func table1Jobs(_ Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[table1Row], error) {
	dur := sc.dur(40 * sim.Second)
	var jobs []runner.Job[table1Row]
	for _, victim := range table1Victims {
		jobs = append(jobs, runner.Job[table1Row]{
			Key: runner.Key("table1", victim),
			Run: func(int64) (table1Row, error) { return table1Run(victim, seed, dur) },
		})
	}
	return jobs, nil
}

// table1Reduce merges Table 1's rows: a CPU anomaly injected at video (V),
// user-tag (U) and text (T) in turn, with per-service and total latency of
// compose-post requests.
func table1Reduce(_ Scale, _ int64, _ noInput, rows []table1Row) (*Table1Result, error) {
	res := &Table1Result{
		Services:     []string{"N", "V", "U", "I", "T", "C"},
		Rows:         map[string]map[string]float64{},
		Totals:       map[string]float64{},
		CPSignatures: map[string]string{},
	}
	for i, victim := range table1Victims {
		res.Rows[victim] = rows[i].Row
		res.Totals[victim] = rows[i].Total
		res.CPSignatures[victim] = rows[i].Sig
	}
	return res, nil
}

func table1Run(victim string, seed int64, dur sim.Time) (table1Row, error) {
	b, err := harness.New(harness.Options{
		Seed: seed, Spec: topology.SocialNetwork(), SLOMargin: 1.6,
		TraceWindow: dur, // every trace of the run is read at its end
	})
	if err != nil {
		return table1Row{}, err
	}
	// compose-post only, so every trace matches Fig. 2(b); Since/Type
	// filters exclude the SLO-calibration traffic.
	t0 := b.Eng.Now()
	gen := newEndpointDriver(b, "compose-post", 30)
	gen.start()
	ct := b.Cluster.ReplicaSet(victim).Containers()[0]
	b.Injector.Inject(injector.Injection{
		Kind: injector.CPUStress, Target: ct, Intensity: 0.55, Duration: dur,
	})
	b.Eng.RunFor(dur)

	perSvc := map[string][]float64{}
	var totals []float64
	sigCount := map[string]int{}
	var cp cpath.Extractor
	for _, tr := range b.DB.Select(tracedb.Query{Type: "compose-post", Since: t0}) {
		totals = append(totals, tr.Latency().Millis())
		sigCount[cp.Extract(tr).Signature()]++
		for _, sp := range cp.Kids.Spans() {
			if col, ok := table1Cols[tr.Names.ServiceName(uint32(sp.Service))]; ok {
				perSvc[col] = append(perSvc[col], cp.Kids.SelfDuration(sp).Millis())
			}
		}
	}
	out := table1Row{Row: map[string]float64{}, Total: stats.Mean(totals)}
	for col, lats := range perSvc {
		out.Row[col] = stats.Mean(lats)
	}
	best, bestN := "", 0
	for sig, n := range sigCount {
		if n > bestN {
			best, bestN = sig, n
		}
	}
	out.Sig = best
	return out, nil
}

// String renders Table 1.
func (r *Table1Result) String() string {
	t := &report.Table{
		Title:  "Table 1: CP changes under anomaly injection (mean latency, ms)",
		Header: append(append([]string{"injected"}, r.Services...), "total"),
	}
	for _, victim := range []string{"video", "user-tag", "text"} {
		row := []string{victim}
		for _, col := range r.Services {
			row = append(row, f1(r.Rows[victim][col]))
		}
		row = append(row, f1(r.Totals[victim]))
		t.Add(row...)
	}
	s := t.String()
	for _, victim := range []string{"video", "user-tag", "text"} {
		s += fmt.Sprintf("  CP under %s injection: %s\n", victim, r.CPSignatures[victim])
	}
	return s
}

// Report converts the Table 1 result into its typed record.
func (r *Table1Result) Report() *report.Report {
	rep := report.New("table1")
	for _, victim := range table1Victims {
		row := rep.Row(victim).Dim("critical-path", r.CPSignatures[victim])
		for _, col := range r.Services {
			row.Val(col, "ms", r.Rows[victim][col])
		}
		row.Val("total", "ms", r.Totals[victim])
	}
	return rep
}

// endpointDriver issues a single endpoint type at a constant rate (some
// characterization experiments need a pure request stream).
type endpointDriver struct {
	b        *harness.Bench
	endpoint string
	rps      float64
}

func newEndpointDriver(b *harness.Bench, endpoint string, rps float64) *endpointDriver {
	return &endpointDriver{b: b, endpoint: endpoint, rps: rps}
}

func (d *endpointDriver) start() {
	r := sim.Stream(d.b.Opts.Seed, "endpoint-driver")
	var next func()
	next = func() {
		gap := sim.Exponential(r, sim.FromSeconds(1/d.rps))
		if gap < 1 {
			gap = 1
		}
		d.b.Eng.Schedule(gap, func() {
			_ = d.b.App.Submit(d.endpoint, nil)
			next()
		})
	}
	next()
}

// Fig3Result reproduces the min/max-CP latency distributions for each of
// the four benchmarks (paper: up to 1.6× median and 2.5× P99 gaps).
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3Row is one benchmark's min/max CP comparison.
type Fig3Row struct {
	Benchmark      string
	MinCP, MaxCP   string
	MinMedian      float64
	MaxMedian      float64
	MinP99, MaxP99 float64
	MedianRatio    float64
	P99Ratio       float64
	Groups         int
}

// fig3Jobs declares the Fig. 3 job list: one run per benchmark, each
// grouping its traces by critical-path signature.
func fig3Jobs(_ Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[Fig3Row], error) {
	dur := sc.dur(60 * sim.Second)
	var jobs []runner.Job[Fig3Row]
	for i, spec := range topology.All() {
		jobs = append(jobs, runner.Job[Fig3Row]{
			Key: runner.Key("fig3", spec.Name),
			Run: func(int64) (Fig3Row, error) { return fig3Run(spec, seed+int64(i), dur) },
		})
	}
	return jobs, nil
}

// fig3Reduce collects Fig. 3's rows: each benchmark driven with its
// request mix under the randomized anomaly campaign, its traces grouped by
// critical-path signature.
func fig3Reduce(_ Scale, _ int64, _ noInput, rows []Fig3Row) (*Fig3Result, error) {
	return &Fig3Result{Rows: rows}, nil
}

func fig3Run(spec *topology.Spec, seed int64, dur sim.Time) (Fig3Row, error) {
	b, err := harness.New(harness.Options{
		Seed: seed, Spec: spec, SLOMargin: 1.6,
		TraceWindow: dur, // every trace of the run is read at its end
	})
	if err != nil {
		return Fig3Row{}, err
	}
	t0 := b.Eng.Now()
	b.AttachWorkload(workload.Constant{RPS: 150})
	camp := injector.DefaultCampaign(b.Injector, b.Containers())
	camp.Start()
	b.Eng.RunFor(dur)
	camp.Stop()

	// CP signatures are only comparable within one request type; scan
	// the endpoint mix for the type with the richest CP diversity
	// (anomalies land uniformly, so which type shifts varies by run).
	var traces []*trace.Trace
	var minSig, maxSig string
	var minLat, maxLat []float64
	ok := false
	for _, minSamples := range []int{20, 5} {
		for _, ep := range spec.Endpoints {
			cand := b.DB.Select(tracedb.Query{Type: ep.Name, Since: t0})
			if ms, ml, xs, xl, got := cpath.MinMaxCP(cand, minSamples); got {
				traces, minSig, minLat, maxSig, maxLat, ok = cand, ms, ml, xs, xl, true
				break
			}
		}
		if ok {
			break
		}
	}
	if !ok {
		return Fig3Row{}, fmt.Errorf("fig3: %s: no CP diversity", spec.Name)
	}
	groups := cpath.Group(traces)
	row := Fig3Row{
		Benchmark: spec.Name,
		MinCP:     minSig, MaxCP: maxSig,
		MinMedian: stats.Median(minLat), MaxMedian: stats.Median(maxLat),
		MinP99: stats.Percentile(minLat, 99), MaxP99: stats.Percentile(maxLat, 99),
		Groups: len(groups),
	}
	row.MedianRatio = ratio(row.MaxMedian, row.MinMedian)
	row.P99Ratio = ratio(row.MaxP99, row.MinP99)
	return row, nil
}

// String renders the Fig. 3 report.
func (r *Fig3Result) String() string {
	t := &report.Table{
		Title:  "Fig 3: min/max critical-path latency distributions",
		Header: []string{"benchmark", "CP groups", "min-CP p50", "max-CP p50", "p50 ratio", "min-CP p99", "max-CP p99", "p99 ratio"},
	}
	for _, row := range r.Rows {
		t.Add(row.Benchmark, fmt.Sprintf("%d", row.Groups),
			f1(row.MinMedian), f1(row.MaxMedian), f2(row.MedianRatio),
			f1(row.MinP99), f1(row.MaxP99), f2(row.P99Ratio))
	}
	return t.String()
}

// Report converts the Fig. 3 result into its typed record.
func (r *Fig3Result) Report() *report.Report {
	rep := report.New("fig3")
	for _, row := range r.Rows {
		rep.Row(row.Benchmark).
			Dim("min-cp", row.MinCP).
			Dim("max-cp", row.MaxCP).
			Val("cp-groups", "count", float64(row.Groups)).
			Val("min-cp-p50", "ms", row.MinMedian).
			Val("max-cp-p50", "ms", row.MaxMedian).
			Val("p50-ratio", "x", row.MedianRatio).
			Val("min-cp-p99", "ms", row.MinP99).
			Val("max-cp-p99", "ms", row.MaxP99).
			Val("p99-ratio", "x", row.P99Ratio)
	}
	return rep
}

// Fig4Result reproduces Insight 2: scaling the highest-variance service on
// the CP (text) beats scaling the highest-median one (composePost).
type Fig4Result struct {
	// Span latency statistics on the baseline run.
	TextMedian, TextStd       float64
	ComposeMedian, ComposeStd float64
	// End-to-end p99 for the three arms.
	BeforeP99, ScaleTextP99, ScaleComposeP99 float64
}

// fig4ArmStats is one arm's measurements (span stats only on the baseline).
type fig4ArmStats struct {
	TextMedian, TextStd       float64
	ComposeMedian, ComposeStd float64
	P99                       float64
}

// fig4Arm runs one Fig. 4 arm: a Social Network bench under bursty CPU
// pressure on text, optionally with one extra replica of the named service,
// measuring compose-post latency (span stats only on the unscaled baseline).
func fig4Arm(seed int64, dur sim.Time, scale string) (fig4ArmStats, error) {
	b, err := harness.New(harness.Options{
		Seed: seed, Spec: topology.SocialNetwork(), SLOMargin: 1.6,
		TraceWindow: dur, // every trace of the run is read at its end
	})
	if err != nil {
		return fig4ArmStats{}, err
	}
	t0 := b.Eng.Now()
	if scale != "" {
		rs := b.Cluster.ReplicaSet(scale)
		lim := rs.Containers()[0].Limits()
		if _, err := rs.AddReplica(lim, false, true); err != nil {
			return fig4ArmStats{}, err
		}
	}
	// Bursty CPU pressure on text creates the variance asymmetry the
	// paper observes: text keeps a lower median than composePost but a
	// far higher variance (its contention arrives in episodes, while
	// composePost never contends).
	victim := b.Cluster.ReplicaSet("text").Containers()[0]
	for at := 2 * sim.Second; at < dur; at += 5 * sim.Second {
		b.Eng.Schedule(at, func() {
			b.Injector.Inject(injector.Injection{
				Kind: injector.CPUStress, Target: victim, Intensity: 0.5,
				Duration: 1500 * sim.Millisecond,
			})
		})
	}
	gen := newEndpointDriver(b, "compose-post", 100)
	gen.start()
	b.Eng.RunFor(dur)

	q := tracedb.Query{Type: "compose-post", Since: t0}
	st := fig4ArmStats{P99: stats.Percentile(b.DB.Latencies(q), 99)}
	if scale == "" {
		perSvc := b.DB.ServiceLatencies(q)
		st.TextMedian = stats.Median(perSvc["text"])
		st.TextStd = stats.StdDev(perSvc["text"])
		st.ComposeMedian = stats.Median(perSvc["compose-post"])
		st.ComposeStd = stats.StdDev(perSvc["compose-post"])
	}
	return st, nil
}

// fig4Jobs declares the Fig. 4 job list: the three arms are independent
// simulations on the same seed (a paired comparison).
func fig4Jobs(_ Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[fig4ArmStats], error) {
	dur := sc.dur(40 * sim.Second)
	arms := []struct{ key, scale string }{
		{"fig4/before", ""},
		{"fig4/scale-text", "text"},
		{"fig4/scale-compose", "compose-post"},
	}
	var jobs []runner.Job[fig4ArmStats]
	for _, a := range arms {
		jobs = append(jobs, runner.Job[fig4ArmStats]{
			Key: a.key,
			Run: func(int64) (fig4ArmStats, error) { return fig4Arm(seed, dur, a.scale) },
		})
	}
	return jobs, nil
}

// fig4Reduce merges Fig. 4's arms: compose-post latency before scaling,
// after scaling text (high variance), and after scaling composePost (high
// median).
func fig4Reduce(_ Scale, _ int64, _ noInput, arms []fig4ArmStats) (*Fig4Result, error) {
	return &Fig4Result{
		TextMedian: arms[0].TextMedian, TextStd: arms[0].TextStd,
		ComposeMedian: arms[0].ComposeMedian, ComposeStd: arms[0].ComposeStd,
		BeforeP99: arms[0].P99, ScaleTextP99: arms[1].P99, ScaleComposeP99: arms[2].P99,
	}, nil
}

// String renders the Fig. 4 report.
func (r *Fig4Result) String() string {
	s := "Fig 4: scaling highest-variance vs highest-median service (compose-post)\n"
	s += fmt.Sprintf("  span stats: text p50=%.1fms sd=%.1f | compose-post p50=%.1fms sd=%.1f\n",
		r.TextMedian, r.TextStd, r.ComposeMedian, r.ComposeStd)
	s += fmt.Sprintf("  e2e p99: before=%.1fms scale-text=%.1fms scale-compose=%.1fms\n",
		r.BeforeP99, r.ScaleTextP99, r.ScaleComposeP99)
	s += fmt.Sprintf("  gain from text (variance) %.1f%%, from compose (median) %.1f%%\n",
		100*(1-r.ScaleTextP99/r.BeforeP99), 100*(1-r.ScaleComposeP99/r.BeforeP99))
	return s
}

// Report converts the Fig. 4 result into its typed record.
func (r *Fig4Result) Report() *report.Report {
	rep := report.New("fig4")
	rep.Row("span-stats").
		Val("text-p50", "ms", r.TextMedian).
		Val("text-sd", "ms", r.TextStd).
		Val("compose-p50", "ms", r.ComposeMedian).
		Val("compose-sd", "ms", r.ComposeStd)
	rep.Row("e2e-p99").
		Val("before", "ms", r.BeforeP99).
		Val("scale-text", "ms", r.ScaleTextP99).
		Val("scale-compose", "ms", r.ScaleComposeP99).
		Val("gain-scale-text", "frac", 1-r.ScaleTextP99/r.BeforeP99).
		Val("gain-scale-compose", "frac", 1-r.ScaleComposeP99/r.BeforeP99)
	return rep
}

// Fig5Result reproduces the scale-up vs scale-out trade-off across load for
// CPU-bound and memory-bound bottlenecks on two applications.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5Row is one (app, resource, load) measurement.
type Fig5Row struct {
	Benchmark string
	Resource  string // "cpu" or "memory"
	LoadRPS   float64
	// Median e2e latency (ms) with bootstrap 95% CI for each strategy.
	UpMedian, UpLo, UpHi    float64
	OutMedian, OutLo, OutHi float64
	Winner                  string
}

// fig5Bottleneck selects the stressed service per app and resource class.
var fig5Bottleneck = map[string]map[string]string{
	"social-network": {"cpu": "compose-post", "memory": "post-storage-memcached"},
	"train-ticket":   {"cpu": "ts-order", "memory": "ts-order-mongodb"},
}

// fig5Benches and fig5Resources enumerate the sweep's outer axes.
var (
	fig5Benches   = []string{"social-network", "train-ticket"}
	fig5Resources = []string{"cpu", "memory"}
	fig5Arms      = []string{"scale-up", "scale-out"}
)

func fig5Loads(sc Scale) []float64 {
	if sc.DurationMul < 1 {
		return []float64{250, 1250, 2250}
	}
	return []float64{250, 750, 1250, 1750, 2250}
}

// fig5Rows enumerates the sweep's (benchmark, resource, load) rows once, so
// the job declaration and the merge are driven by the same table rather
// than replayed loops.
func fig5Rows(sc Scale) []Fig5Row {
	var rows []Fig5Row
	for _, benchName := range fig5Benches {
		for _, resource := range fig5Resources {
			for _, load := range fig5Loads(sc) {
				rows = append(rows, Fig5Row{Benchmark: benchName, Resource: resource, LoadRPS: load})
			}
		}
	}
	return rows
}

// fig5Reps is the number of repetitions per (row, strategy) at the scale.
func fig5Reps(sc Scale) int {
	return max(sc.Reps, 1)
}

// fig5Jobs declares the Fig. 5 job list: one job per (row, strategy,
// repetition) cell, in that nesting order, which is the layout fig5Reduce
// reads back. The two strategy arms of one repetition share a seed (the
// comparison is paired on the same workload realization) while repetitions
// differ, which is what the CI bars measure.
func fig5Jobs(_ Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[[]float64], error) {
	dur, reps := sc.dur(30*sim.Second), fig5Reps(sc)
	for _, benchName := range fig5Benches {
		if _, err := topology.ByName(benchName); err != nil {
			return nil, err
		}
	}
	var jobs []runner.Job[[]float64]
	for _, row := range fig5Rows(sc) {
		for _, arm := range fig5Arms {
			for rep := 0; rep < reps; rep++ {
				pairKey := runner.Key("fig5", row.Benchmark, row.Resource, row.LoadRPS, "rep", rep)
				scaleUp := arm == "scale-up"
				jobs = append(jobs, runner.Job[[]float64]{
					Key: runner.Key("fig5", row.Benchmark, row.Resource, row.LoadRPS, arm, "rep", rep),
					Run: func(int64) ([]float64, error) {
						return fig5Arm(row.Benchmark, row.Resource, row.LoadRPS, dur, sim.DeriveSeed(seed, pairKey), scaleUp)
					},
				})
			}
		}
	}
	return jobs, nil
}

// fig5Reduce pools each row's repetitions per strategy and compares
// scale-up (double the bottleneck's limits) with scale-out (add one
// replica) under a matching resource anomaly.
func fig5Reduce(sc Scale, seed int64, _ noInput, lats [][]float64) (*Fig5Result, error) {
	reps := fig5Reps(sc)
	pool := func(cells [][]float64) []float64 {
		var out []float64
		for _, lat := range cells {
			out = append(out, lat...)
		}
		return out
	}
	res := &Fig5Result{}
	for ri, row := range fig5Rows(sc) {
		cells := lats[ri*len(fig5Arms)*reps:]
		up, out := pool(cells[:reps]), pool(cells[reps:2*reps])
		r := sim.Stream(seed, runner.Key("fig5-ci", row.Benchmark, row.Resource, row.LoadRPS))
		row.UpMedian = stats.Median(up)
		row.UpLo, row.UpHi, _ = stats.BootstrapCI(up, 0.95, 200, r)
		row.OutMedian = stats.Median(out)
		row.OutLo, row.OutHi, _ = stats.BootstrapCI(out, 0.95, 200, r)
		if row.UpMedian <= row.OutMedian {
			row.Winner = "scale-up"
		} else {
			row.Winner = "scale-out"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func fig5Arm(benchName, resource string, load float64, dur sim.Time, seed int64, scaleUp bool) ([]float64, error) {
	spec, err := topology.ByName(benchName)
	if err != nil {
		return nil, err
	}
	b, err := harness.New(harness.Options{Seed: seed, Spec: spec, SLOMargin: 1.6})
	if err != nil {
		return nil, err
	}
	bottleneck := fig5Bottleneck[benchName][resource]
	rs := b.Cluster.ReplicaSet(bottleneck)
	ct := rs.Containers()[0]

	// Create the matching resource pressure on the bottleneck.
	kind := injector.CPUStress
	if resource == "memory" {
		kind = injector.MemBWStress
	}
	b.Injector.Inject(injector.Injection{Kind: kind, Target: ct, Intensity: 0.8, Duration: dur})

	// Apply the mitigation strategy under test.
	if scaleUp {
		lim := ct.Limits()
		if resource == "cpu" {
			lim[cluster.CPU] *= 2
		} else {
			lim[cluster.MemBW] *= 2
			lim[cluster.LLC] *= 2
		}
		ct.SetLimits(lim)
	} else {
		if _, err := rs.AddReplica(ct.Limits(), false, true); err != nil {
			return nil, err
		}
	}

	var lats []float64
	b.App.SetResultHook(func(r app.Result) {
		if !r.Dropped {
			lats = append(lats, r.Latency.Millis())
		}
	})
	b.AttachWorkload(workload.Constant{RPS: load})
	b.Eng.RunFor(dur)
	if len(lats) == 0 {
		return nil, fmt.Errorf("fig5: no completed requests (%s %s %.0frps)", benchName, resource, load)
	}
	return lats, nil
}

// String renders the Fig. 5 report.
func (r *Fig5Result) String() string {
	t := &report.Table{
		Title:  "Fig 5: scale-up vs scale-out (median e2e ms, 95% CI)",
		Header: []string{"benchmark", "resource", "load (rps)", "scale-up", "scale-out", "winner"},
	}
	for _, row := range r.Rows {
		t.Add(row.Benchmark, row.Resource, fmt.Sprintf("%.0f", row.LoadRPS),
			fmt.Sprintf("%.1f [%.1f,%.1f]", row.UpMedian, row.UpLo, row.UpHi),
			fmt.Sprintf("%.1f [%.1f,%.1f]", row.OutMedian, row.OutLo, row.OutHi),
			row.Winner)
	}
	return t.String()
}

// Report converts the Fig. 5 result into its typed record. Row labels
// carry the sweep coordinates (they must be unique within the report).
func (r *Fig5Result) Report() *report.Report {
	rep := report.New("fig5")
	for _, row := range r.Rows {
		rep.Row(fmt.Sprintf("%s/%s/%.0frps", row.Benchmark, row.Resource, row.LoadRPS)).
			Dim("winner", row.Winner).
			Val("load", "rps", row.LoadRPS).
			Val("scale-up-p50", "ms", row.UpMedian).
			Val("scale-up-ci-lo", "ms", row.UpLo).
			Val("scale-up-ci-hi", "ms", row.UpHi).
			Val("scale-out-p50", "ms", row.OutMedian).
			Val("scale-out-ci-lo", "ms", row.OutLo).
			Val("scale-out-ci-hi", "ms", row.OutHi)
	}
	return rep
}
