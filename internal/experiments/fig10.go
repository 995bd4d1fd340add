package experiments

import (
	"fmt"

	"firm/internal/app"
	"firm/internal/core"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/report"
	"firm/internal/rl"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/workload"
)

// Fig10Result holds the end-to-end comparison of §4.4: CDF summaries of
// end-to-end latency, requested CPU limit, and dropped requests for FIRM,
// AIMD, and Kubernetes autoscaling, plus the headline ratios the paper
// reports.
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
var fig10Policies = []Policy{PolicyFIRMSingle, PolicyAIMD, PolicyHPA}

// fig10Jobs declares Fig. 10's validation runs on Social Network: one job
// per policy, each under the randomized anomaly-injection campaign. Every
// arm builds its world on one seed derived from (experiment, repetition),
// never from the policy, so workload, campaign and cluster noise are common
// random numbers and the arms differ only by controller. base is the agent
// trained on Train-Ticket; the FIRM arm loads it on the job's own seed, so
// no mutable state crosses workers. The run evaluates with Training off,
// which reads the actor alone, so base's target networks (which a snapshot
// does not carry) cannot matter.
func fig10Jobs(_ Exec, sc Scale, seed int64, base rl.Snapshot) ([]runner.Job[RunStats], error) {
	dur := sc.dur(120 * sim.Second)
	world := sim.DeriveSeed(seed, "fig10-world")
	var jobs []runner.Job[RunStats]
	for _, policy := range fig10Policies {
		jobs = append(jobs, runner.Job[RunStats]{
			Key: runner.Key("fig10", policy),
			Run: func(jobSeed int64) (RunStats, error) {
				var prov core.AgentProvider
				if policy == PolicyFIRMSingle {
					a, err := loadAgent(base, jobSeed)
					if err != nil {
						return RunStats{}, err
					}
					prov = core.SharedAgent{A: a}
				}
				return fig10Run(world, dur, policy, prov)
			},
		})
	}
	return jobs, nil
}

// RunStats aggregates one Fig. 10 run's observations.
type RunStats struct {
	SLOms      float64
	Latencies  []float64 // end-to-end latency per request (ms)
	Completed  uint64
	Dropped    uint64
	Violations uint64
	// CPULimitSamples holds per-container CPU limits (% of a core) sampled
	// once per second across the run — the Fig. 10(b) distribution.
	CPULimitSamples []float64
}

// ViolationRate returns the fraction of completed requests over SLO.
func (r RunStats) ViolationRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Completed)
}

// P99 returns the run's 99th-percentile latency (ms).
func (r RunStats) P99() float64 { return stats.Percentile(r.Latencies, 99) }

// fig10Run is one Fig. 10 arm: fig10Bench's testbed run for dur.
func fig10Run(seed int64, dur sim.Time, policy Policy, prov core.AgentProvider) (RunStats, error) {
	b, st, err := fig10Bench(seed, policy, prov)
	if err != nil {
		return RunStats{}, err
	}
	b.Eng.RunFor(dur)
	st.Completed = b.App.Completed
	st.Dropped = b.App.Dropped
	st.Violations = b.App.Violations
	return *st, nil
}

// fig10Bench wires one Fig. 10 arm: Social Network at a constant 250 req/s
// under the randomized anomaly-injection campaign, managed by policy, with
// hooks that fill the returned RunStats' latencies and CPU-limit samples as
// the engine runs. prov supplies the FIRM policy's agent and is ignored by
// the baselines. The order in which the pieces are wired fixes the engine's
// event order, so it is part of the output.
func fig10Bench(seed int64, policy Policy, prov core.AgentProvider) (*harness.Bench, *RunStats, error) {
	b, err := harness.New(harness.Options{
		Seed:      seed,
		Spec:      topology.SocialNetwork(),
		SLOMargin: 1.6,
	})
	if err != nil {
		return nil, nil, err
	}
	st := &RunStats{SLOms: b.App.SLO.Millis()}
	b.App.SetResultHook(func(r app.Result) {
		if !r.Dropped {
			st.Latencies = append(st.Latencies, r.Latency.Millis())
		}
	})
	b.AttachWorkload(workload.Constant{RPS: 250})

	switch policy {
	case PolicyFIRMSingle:
		cfg := core.DefaultConfig()
		cfg.IdleReclaim = 3
		cfg.ReclaimFactor = 0.9
		b.AttachFIRM(cfg, prov, nil)
	case PolicyHPA:
		b.AttachHPA()
	case PolicyAIMD:
		b.AttachAIMD()
	}

	injector.DefaultCampaign(b.Injector, b.Containers()).Start()

	// Per-second CPU-limit sampling.
	cpuTicker := sim.NewTicker(b.Eng, sim.Second, func() {
		for _, c := range b.Containers() {
			st.CPULimitSamples = append(st.CPULimitSamples, c.Limits()[0]*100)
		}
	})
	cpuTicker.Start()
	return b, st, nil
}

// fig10Reduce derives the headline ratios from Fig. 10's three policies,
// evaluated on a DeathStarBench application (validation benchmark, §4.4)
// under the randomized anomaly-injection campaign with the single-RL agent
// trained on Train-Ticket (the paper's §4.3 protocol).
func fig10Reduce(_ Scale, _ int64, _ rl.Snapshot, sts []RunStats) (*Fig10Result, error) {
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

// trainBase is fig1's and fig10's prepare step: it trains a One-for-All
// agent on Train-Ticket for 1/div of the scale's episodes and returns its
// weights.
func trainBase(div int) func(Exec, Scale, int64) (rl.Snapshot, error) {
	return func(x Exec, sc Scale, seed int64) (rl.Snapshot, error) {
		trained, err := Train(TrainOpts{
			Pool: x.Pool, Seed: seed, Spec: topology.TrainTicket(),
			Episodes: sc.EpisodeCount / div, Variant: OneForAll,
		})
		if err != nil {
			return rl.Snapshot{}, err
		}
		return trained.Provider.Agents()[0].Save()
	}
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
	s += fmt.Sprintf("FIRM vs K8S: tail %.1fx, violations %.1fx, CPU %+.1f%%, drops %.1fx\n",
		r.TailLatencyVsHPA, r.ViolationsVsHPA, -100*r.CPUReductionVsHPA, r.DropsVsHPA)
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
