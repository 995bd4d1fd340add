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

// fig10Policies are Fig. 10's arms, in job order.
var fig10Policies = []Policy{PolicyFIRMSingle, PolicyFIRMMulti, PolicyAIMD, PolicyHPA}

// fig10Jobs declares Fig. 10's validation runs on Social Network: one job
// per policy, each under the randomized anomaly-injection campaign. base is
// the single-RL agent trained on Train-Ticket. Each FIRM job rebuilds its
// own agents from it, so no mutable state crosses workers: the single-RL
// arm loads base on the job's seed, and the multi-RL arm transfers it into
// per-service agents. Train-Ticket and Social Network share no service
// name, so every agent the controller asks for on Social Network is a
// fresh transfer: there is nothing to train here. The runs evaluate with
// Training off, which reads the actor alone, so base's target networks
// (which a snapshot does not carry) cannot matter.
func fig10Jobs(_ Exec, sc Scale, seed int64, base rl.Snapshot) ([]runner.Job[RunStats], error) {
	spec := topology.SocialNetwork()
	dur := sc.dur(120 * sim.Second)
	var jobs []runner.Job[RunStats]
	for _, policy := range fig10Policies {
		jobs = append(jobs, runner.Job[RunStats]{
			Key: runner.Key("fig10", policy),
			Run: func(jobSeed int64) (RunStats, error) {
				var prov core.AgentProvider
				switch policy {
				case PolicyFIRMSingle:
					a, err := loadAgent(base, jobSeed)
					if err != nil {
						return RunStats{}, err
					}
					prov = core.SharedAgent{A: a}
				case PolicyFIRMMulti:
					a, err := loadAgent(base, 0)
					if err != nil {
						return RunStats{}, err
					}
					mcfg := rl.DefaultConfig()
					mcfg.Seed = seed + 1
					prov = &core.PerServiceAgents{Cfg: mcfg, Base: a}
				}
				return Run(RunOpts{
					Seed: jobSeed, Spec: spec,
					Pattern:  workload.Constant{RPS: 250},
					Duration: dur, Policy: policy, Agents: prov, Campaign: true,
				})
			},
		})
	}
	return jobs, nil
}

// Fig10 trains a single-RL agent on Train-Ticket (the paper's §4.3
// protocol), then evaluates all four policies on a DeathStarBench
// application (validation benchmark, §4.4) under the randomized
// anomaly-injection campaign.
func Fig10(x Exec, sc Scale, seed int64) (*Fig10Result, error) {
	base, err := trainBase(x, seed, sc.EpisodeCount)
	if err != nil {
		return nil, err
	}
	jobs, err := fig10Jobs(x, sc, seed, base)
	if err != nil {
		return nil, err
	}
	sts, err := mapJobs(x, "fig10", sc, seed, base, jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig10Result{Benchmark: topology.SocialNetwork().Name, Stats: map[string]RunStats{}}
	for i, policy := range fig10Policies {
		res.Stats[policy.String()] = sts[i]
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

// trainBase trains a One-for-All agent on Train-Ticket for episodes
// episodes and returns its weights.
func trainBase(x Exec, seed int64, episodes int) (rl.Snapshot, error) {
	trained, err := Train(TrainOpts{
		Pool: x.Pool, Seed: seed, Spec: topology.TrainTicket(),
		Episodes: episodes, Variant: OneForAll,
	})
	if err != nil {
		return rl.Snapshot{}, err
	}
	return trained.Provider.Agents()[0].Save()
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

// loadAgent builds a fresh agent on seed and loads snap into it. The
// snapshot sets all four networks, targets from the online ones.
func loadAgent(snap rl.Snapshot, seed int64) (*rl.Agent, error) {
	cfg := rl.DefaultConfig()
	cfg.Seed = seed
	a := rl.New(cfg)
	if err := a.Load(snap); err != nil {
		return nil, err
	}
	return a, nil
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
