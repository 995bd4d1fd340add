package experiments

import (
	"fmt"

	"firm/internal/cluster"
	"firm/internal/deploy"
	"firm/internal/harness"
	"firm/internal/report"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/svm"
	"firm/internal/topology"
)

// newSVM builds an SVM with the experiment's seed.
func newSVM(seed int64) *svm.SVM {
	cfg := svm.DefaultConfig()
	cfg.Seed = seed
	return svm.New(cfg)
}

// Table6Result measures the latency of each resource-management operation
// (the floor on any mitigation's reaction time, §5).
type Table6Result struct {
	// Mean and SD per operation name, in ms.
	Mean map[string]float64
	SD   map[string]float64
	N    int
}

// table6 exercises the deployment module: repeated partition changes per
// resource plus warm and cold container starts. It has no cells.
func table6(_ string, _ Exec, sc Scale, seed int64) (Reportable, error) {
	b, err := harness.New(harness.Options{
		Seed: seed, Spec: topology.HotelReservation(),
	})
	if err != nil {
		return nil, err
	}
	dep := b.Deploy
	rs := b.Cluster.ReplicaSet("search")
	ct := rs.Containers()[0]

	n := 60
	if sc.DurationMul >= 1 {
		n = 300
	}
	// Partition operations: toggle one resource at a time so each op is
	// measured in isolation.
	for r := cluster.Resource(0); r < cluster.NumResources; r++ {
		for i := 0; i < n; i++ {
			lim := ct.Limits()
			if i%2 == 0 {
				lim[r] *= 1.05
			} else {
				lim[r] /= 1.05
			}
			dep.ApplyLimits(ct, lim, nil)
			b.Eng.RunFor(sim.Second)
		}
	}
	// Container starts.
	warmRS := b.Cluster.ReplicaSet("geo")
	for i := 0; i < n/3; i++ {
		if c, err := dep.ScaleOut(warmRS, warmRS.Containers()[0].Limits(), false, nil); err == nil {
			b.Eng.RunFor(sim.Second)
			dep.ScaleIn(warmRS, c)
		}
	}
	for i := 0; i < n/3; i++ {
		if c, err := dep.ScaleOut(warmRS, warmRS.Containers()[0].Limits(), true, nil); err == nil {
			b.Eng.RunFor(5 * sim.Second)
			dep.ScaleIn(warmRS, c)
		}
	}

	res := &Table6Result{Mean: map[string]float64{}, SD: map[string]float64{}, N: n}
	for op := deploy.Op(0); op < deploy.NumOps; op++ {
		ms := dep.Measured(op)
		if len(ms) == 0 {
			continue
		}
		res.Mean[op.String()] = stats.Mean(ms)
		res.SD[op.String()] = stats.StdDev(ms)
	}
	return res, nil
}

// String renders Table 6 with the paper's values alongside.
func (r *Table6Result) String() string {
	paper := map[string][2]float64{
		"cpu": {2.1, 0.3}, "mem": {42.4, 11.0}, "llc": {39.8, 9.2},
		"io": {2.3, 0.4}, "net": {12.3, 1.1},
		"warm-start": {45.7, 6.9}, "cold-start": {2050.8, 291.4},
	}
	t := &report.Table{
		Title:  "Table 6: resource-management operation latency (ms)",
		Header: []string{"operation", "mean", "sd", "paper mean", "paper sd"},
	}
	for _, op := range []string{"cpu", "mem", "llc", "io", "net", "warm-start", "cold-start"} {
		if _, ok := r.Mean[op]; !ok {
			continue
		}
		t.Add(op, f2(r.Mean[op]), f2(r.SD[op]), f2(paper[op][0]), f2(paper[op][1]))
	}
	return t.String()
}

// Report converts the Table 6 result into its typed record.
func (r *Table6Result) Report() *report.Report {
	rep := report.New("table6")
	rep.Row("samples").Val("n", "count", float64(r.N))
	for _, op := range sortedKeys(r.Mean) {
		rep.Row(op).Val("mean", "ms", r.Mean[op]).Val("sd", "ms", r.SD[op])
	}
	return rep
}

// HeadlineResult aggregates the paper's §1 headline claims from the Fig. 10
// and Fig. 11(b) runs.
type HeadlineResult struct {
	Fig10  *Fig10Result
	Fig11b *Fig11bResult
	// MitigationVsHPA and MitigationVsAIMD are mitigation-time speedups
	// (paper: up to 30.1× and 9.6×).
	MitigationVsHPA  float64
	MitigationVsAIMD float64
}

// headline runs fig10 and fig11b from the declared table and derives the
// abstract's ratios. It has no cells of its own.
func headline(_ string, x Exec, sc Scale, seed int64) (Reportable, error) {
	fig10, _ := Get("fig10")
	f10, err := fig10(x, sc, seed)
	if err != nil {
		return nil, err
	}
	fig11b, _ := Get("fig11b")
	f11b, err := fig11b(x, sc, seed+1000)
	if err != nil {
		return nil, err
	}
	res := &HeadlineResult{Fig10: f10.(*Fig10Result), Fig11b: f11b.(*Fig11bResult)}
	if fin := res.Fig11b.FinalSingleRL; fin > 0 {
		res.MitigationVsHPA = res.Fig11b.HPABaseline / fin
		res.MitigationVsAIMD = res.Fig11b.AIMDBaseline / fin
	}
	return res, nil
}

// String renders the headline comparison against the paper's claims.
func (r *HeadlineResult) String() string {
	t := &report.Table{
		Title:  "Headline results vs paper claims",
		Header: []string{"claim", "measured", "paper (up to)"},
	}
	t.Add("SLO violations vs K8S", fmt.Sprintf("%.1fx", r.Fig10.ViolationsVsHPA), "16.7x")
	t.Add("SLO violations vs AIMD", fmt.Sprintf("%.1fx", r.Fig10.ViolationsVsAIMD), "9.8x")
	t.Add("tail latency vs K8S", fmt.Sprintf("%.1fx", r.Fig10.TailLatencyVsHPA), "11.5x")
	t.Add("requested CPU reduction", fmt.Sprintf("%.1f%%", 100*r.Fig10.CPUReductionVsHPA), "62.3%")
	t.Add("mitigation time vs K8S", fmt.Sprintf("%.1fx", r.MitigationVsHPA), "30.1x")
	t.Add("mitigation time vs AIMD", fmt.Sprintf("%.1fx", r.MitigationVsAIMD), "9.6x")
	return t.String()
}

// Report converts the headline comparison into its typed record. The
// underlying Fig. 10 / Fig. 11(b) measurements get their own reports when
// run as experiments; this record carries only the abstract's ratios.
func (r *HeadlineResult) Report() *report.Report {
	rep := report.New("headline")
	rep.Row("slo-violations").
		Val("vs-k8s", "x", r.Fig10.ViolationsVsHPA).
		Val("vs-aimd", "x", r.Fig10.ViolationsVsAIMD)
	rep.Row("tail-latency").Val("vs-k8s", "x", r.Fig10.TailLatencyVsHPA)
	rep.Row("requested-cpu-reduction").Val("vs-k8s", "frac", r.Fig10.CPUReductionVsHPA)
	rep.Row("mitigation-time").
		Val("vs-k8s", "x", r.MitigationVsHPA).
		Val("vs-aimd", "x", r.MitigationVsAIMD)
	return rep
}
