package experiments

import (
	"fmt"

	"firm/internal/core"
	"firm/internal/report"
	"firm/internal/rl"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/workload"
)

// Fig10Result holds the end-to-end comparison of §4.4: CDF summaries of
// end-to-end latency, requested CPU limit, and dropped requests for FIRM
// (single- and multi-RL), AIMD, and Kubernetes autoscaling, plus the
// headline ratios the paper reports.
type Fig10Result struct {
	Benchmark string
	SLOms     float64
	Stats     map[string]RunStats

	// Headline ratios (paper: FIRM cuts tail latency up to 11.5×/6.9×,
	// SLO violations 16.7×/9.8×, CPU 29-62%, drops 8.6×).
	TailLatencyVsHPA  float64
	TailLatencyVsAIMD float64
	ViolationsVsHPA   float64
	ViolationsVsAIMD  float64
	CPUReductionVsHPA float64 // fraction
	DropsVsHPA        float64
}

// Fig10 trains a single-RL agent on Train-Ticket (the paper's §4.3
// protocol), then evaluates all four policies on a DeathStarBench
// application (validation benchmark, §4.4) under the randomized
// anomaly-injection campaign.
func Fig10(x Exec, sc Scale, seed int64) (*Fig10Result, error) {
	// Phase 1: train on Train-Ticket.
	trained, err := Train(TrainOpts{
		Pool: x.Pool, Seed: seed, Spec: topology.TrainTicket(),
		Episodes: sc.EpisodeCount, Variant: OneForAll,
	})
	if err != nil {
		return nil, err
	}
	base := trained.Provider.Agents()[0]

	multi, err := Train(TrainOpts{
		Pool: x.Pool, Seed: seed + 1, Spec: topology.TrainTicket(),
		Episodes: sc.EpisodeCount / 2, Variant: Transferred, Base: base,
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: validate on Social Network — one job per policy. Each job
	// owns its agent state: the single-RL arm clones the trained base
	// inside the job, and the multi-RL provider is touched by its job
	// alone (the other arms are rule-based), so no mutable state crosses
	// workers. `base` is only read concurrently (weight transfer), which
	// is safe.
	spec := topology.SocialNetwork()
	dur := sc.dur(120 * sim.Second)
	res := &Fig10Result{Benchmark: spec.Name, Stats: map[string]RunStats{}}

	runs := []struct {
		policy Policy
		prov   func(jobSeed int64) core.AgentProvider
	}{
		{PolicyFIRMSingle, func(jobSeed int64) core.AgentProvider {
			return core.SharedAgent{A: cloneAgent(base, jobSeed)}
		}},
		{PolicyFIRMMulti, func(int64) core.AgentProvider { return multi.Provider }},
		{PolicyAIMD, nil},
		{PolicyHPA, nil},
	}
	var jobs []runner.Job[RunStats]
	for _, r := range runs {
		jobs = append(jobs, runner.Job[RunStats]{
			Key: runner.Key("fig10", r.policy),
			Run: func(jobSeed int64) (RunStats, error) {
				var prov core.AgentProvider
				if r.prov != nil {
					prov = r.prov(jobSeed)
				}
				return Run(RunOpts{
					Seed: jobSeed, Spec: spec,
					Pattern:  workload.Constant{RPS: 250},
					Duration: dur, Policy: r.policy, Agents: prov, Campaign: true,
				})
			},
		})
	}
	sts, err := runner.Map(x.Pool, seed, jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		res.Stats[r.policy.String()] = sts[i]
		if res.SLOms == 0 {
			res.SLOms = sts[i].SLOms
		}
	}

	firm := res.Stats[PolicyFIRMSingle.String()]
	hpa := res.Stats[PolicyHPA.String()]
	aimd := res.Stats[PolicyAIMD.String()]
	res.TailLatencyVsHPA = ratio(hpa.P99(), firm.P99())
	res.TailLatencyVsAIMD = ratio(aimd.P99(), firm.P99())
	res.ViolationsVsHPA = ratio(hpa.ViolationRate(), firm.ViolationRate())
	res.ViolationsVsAIMD = ratio(aimd.ViolationRate(), firm.ViolationRate())
	res.CPUReductionVsHPA = 1 - ratio(stats.Mean(firm.CPULimitSamples), stats.Mean(hpa.CPULimitSamples))
	res.DropsVsHPA = ratio(float64(hpa.Dropped+1), float64(firm.Dropped+1))
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return a / 1e-9
	}
	return a / b
}

// cloneAgent copies a trained agent so evaluation runs do not share mutable
// state with training.
func cloneAgent(src *rl.Agent, seed int64) *rl.Agent {
	cfg := rl.DefaultConfig()
	cfg.Seed = seed
	a := rl.New(cfg)
	if err := a.TransferFrom(src); err != nil {
		panic(err)
	}
	return a
}

// String renders the Fig. 10 report.
func (r *Fig10Result) String() string {
	t := &report.Table{
		Title:  fmt.Sprintf("Fig 10: end-to-end comparison on %s (SLO %.1fms)", r.Benchmark, r.SLOms),
		Header: []string{"policy", "p50 (ms)", "p99 (ms)", "SLO viol.", "drops", "mean CPU lim (%)"},
	}
	for _, name := range sortedKeys(r.Stats) {
		s := r.Stats[name]
		t.Add(name,
			f1(stats.Percentile(s.Latencies, 50)),
			f1(s.P99()),
			pct(s.ViolationRate()),
			fmt.Sprintf("%d", s.Dropped),
			f1(stats.Mean(s.CPULimitSamples)),
		)
	}
	s := t.String()
	s += fmt.Sprintf("latency CDFs:\n")
	for _, name := range sortedKeys(r.Stats) {
		s += fmt.Sprintf("  %-18s %s\n", name, cdfRow(r.Stats[name].Latencies))
	}
	s += fmt.Sprintf("FIRM vs K8S: tail %.1fx, violations %.1fx, CPU -%.1f%%, drops %.1fx\n",
		r.TailLatencyVsHPA, r.ViolationsVsHPA, 100*r.CPUReductionVsHPA, r.DropsVsHPA)
	s += fmt.Sprintf("FIRM vs AIMD: tail %.1fx, violations %.1fx\n",
		r.TailLatencyVsAIMD, r.ViolationsVsAIMD)
	return s
}

// Report converts the Fig. 10 result into its typed record: one row per
// policy with the table's metrics plus the CDF quantiles, and rows for the
// headline ratios.
func (r *Fig10Result) Report() *report.Report {
	rep := report.New("fig10")
	rep.Row("slo").Dim("benchmark", r.Benchmark).Val("slo", "ms", r.SLOms)
	for _, name := range sortedKeys(r.Stats) {
		s := r.Stats[name]
		row := rep.Row(name).
			Val("violation-rate", "frac", s.ViolationRate()).
			Val("completed", "count", float64(s.Completed)).
			Val("drops", "count", float64(s.Dropped)).
			Val("mean-cpu-limit", "%", stats.Mean(s.CPULimitSamples))
		for _, q := range []float64{10, 25, 50, 75, 90, 99} {
			row.Val(fmt.Sprintf("p%.0f", q), "ms", stats.Percentile(s.Latencies, q))
		}
	}
	rep.Row("firm-vs-k8s").
		Val("tail-latency", "x", r.TailLatencyVsHPA).
		Val("violations", "x", r.ViolationsVsHPA).
		Val("cpu-reduction", "frac", r.CPUReductionVsHPA).
		Val("drops", "x", r.DropsVsHPA)
	rep.Row("firm-vs-aimd").
		Val("tail-latency", "x", r.TailLatencyVsAIMD).
		Val("violations", "x", r.ViolationsVsAIMD)
	return rep
}
