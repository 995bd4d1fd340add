package experiments

import (
	"fmt"

	"firm/internal/agent"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/report"
	"firm/internal/rl"
	"firm/internal/rollout"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/workload"
)

// Variant selects the RL-agent arrangement of §4.3.
type Variant int

// The three trained models of Fig. 11(a).
const (
	OneForAll   Variant = iota // a common agent for all microservices
	OneForEach                 // a tailored agent per microservice
	Transferred                // per-microservice agents warm-started from a base
)

// String names the variant as in Fig. 11(a)'s legend.
func (v Variant) String() string {
	switch v {
	case OneForAll:
		return "One-for-All"
	case OneForEach:
		return "One-for-Each"
	case Transferred:
		return "Transferred"
	}
	return "variant(?)"
}

// TrainResult captures a training campaign.
type TrainResult struct {
	Variant  Variant
	Rewards  []float64 // total episode reward per episode
	Smoothed []float64 // moving average (window 8), the Fig. 11(a) curves
	Provider *core.Policies
	// Checkpoints holds snapshots of the shared/base agent taken every
	// CheckpointEvery episodes (empty for per-service variants).
	Checkpoints  []rl.Snapshot
	CheckpointEp []int
}

// episodeDuration is the simulated length of one training episode. The
// paper uses 300 time steps per episode (Table 4) with early termination in
// initial stages; the reproduction uses the controller's 1s interval and a
// shorter horizon to keep simulation cost manageable.
const episodeDuration = 20 * sim.Second

// TrainOpts configures a training campaign.
type TrainOpts struct {
	Seed     int64
	Spec     *topology.Spec
	Episodes int
	Variant  Variant
	// Base supplies the source agent for Transferred.
	Base *rl.Agent
	// CheckpointEvery snapshots the (shared) agent for Fig. 11(b); 0 = off.
	CheckpointEvery int
	// RolloutWorkers pins the episode-rollout worker count (> 0); <= 0
	// borrows actors from Pool. Worker count never changes the trained
	// weights.
	RolloutWorkers int
	// Pool is the campaign's worker budget (Exec.Pool); nil leaves an
	// unpinned campaign with one actor.
	Pool *runner.Pool
	// SyncEvery is the rollout round width (episodes per weight sync); 0
	// uses rollout.DefaultSyncEvery. Unlike RolloutWorkers it shapes the
	// trained weights.
	SyncEvery int
}

// Train runs an RL training campaign on the given benchmark (the paper
// trains on Train-Ticket, §4.3): each episode runs on a freshly deployed
// cluster, driven by load plus the randomized anomaly campaign, and the FIRM
// controller's experience feeds a central DDPG learner. Each rollout worker
// slot keeps one testbed for the length of the call and Resets it between
// its episodes (harness.Bench.Reset), which is the testbed harness.New would
// build, so an episode does not depend on the slot that runs it.
//
// Episodes execute on internal/rollout's deterministic actor-learner
// engine: workers act with policy replicas synced every SyncEvery episodes
// and stream transitions to the learner, which applies them in episode
// order — so results are byte-identical at any worker count.
func Train(opts TrainOpts) (*TrainResult, error) {
	if opts.Spec == nil {
		opts.Spec = topology.TrainTicket()
	}
	if opts.Episodes <= 0 {
		opts.Episodes = 100
	}
	// Every fresh agent is behaviour-cloned from the guided mitigation rule
	// before DDPG refinement: the paper's from-scratch exploration spans
	// ~15000 episodes, which this reproduction compresses (see the
	// "Scales and determinism" section of the README). The clone runs on
	// the campaign's own worker budget: the rollout pin, else the calling
	// goroutine plus whatever the pool has spare for the length of the
	// call — the rule rollout rounds follow too.
	bc := func(ag *rl.Agent) {
		width := opts.RolloutWorkers
		if width <= 0 {
			spare := opts.Pool.AcquireUpTo(opts.Pool.Workers())
			defer opts.Pool.ReleaseSlots(spare)
			width = 1 + spare
		}
		pretrainGuided(ag, opts.Seed, width)
	}
	cfg := rl.DefaultConfig()
	cfg.Seed = opts.Seed
	var prov *core.Policies
	switch opts.Variant {
	case OneForAll:
		ag := rl.New(cfg)
		bc(ag)
		prov = core.Shared(ag)
	case OneForEach:
		prov = core.PerService(cfg, nil, bc)
	case Transferred:
		prov = core.PerService(cfg, opts.Base, nil)
	}
	res := &TrainResult{Variant: opts.Variant, Provider: prov}
	ma := stats.NewMovingAvg(8)

	// One pre-trained extractor serves every episode: the controller only
	// reads it, so sharing it across episodes — and across concurrent
	// rollout workers — is behavior-identical to the per-episode pretrain
	// it replaces (same seed, same synthetic data) at a fraction of the
	// cost.
	ext := harness.NewExtractor(opts.Seed)

	// beds[w] is worker slot w's testbed, built on the slot's first episode;
	// a slot runs one episode at a time, so only its goroutine touches it.
	syncEvery := opts.SyncEvery
	if syncEvery <= 0 {
		syncEvery = rollout.DefaultSyncEvery
	}
	beds := make([]*harness.Bench, syncEvery)
	runEpisode := func(ep, w int, rp *core.Policies, sink core.TransitionSink) (float64, error) {
		// The environment seed is fixed across episodes: §4.3 trains all
		// models "subjected to the same sequence of performance anomaly
		// injections", so only the agent's exploration varies per episode.
		if beds[w] != nil {
			beds[w].Reset(opts.Seed)
		} else {
			b, err := harness.New(trainBedOptions(opts))
			if err != nil {
				return 0, err
			}
			beds[w] = b
		}
		return trainEpisode(beds[w], ext, rp, sink), nil
	}

	_, err := rollout.Run(rollout.Options{
		Episodes:   opts.Episodes,
		Workers:    opts.RolloutWorkers,
		Pool:       opts.Pool,
		SyncEvery:  opts.SyncEvery,
		Seed:       opts.Seed,
		Key:        "rollout/" + opts.Variant.String(),
		Learner:    prov,
		RunEpisode: runEpisode,
		AfterEpisode: func(ep int, reward float64) error {
			res.Rewards = append(res.Rewards, reward)
			res.Smoothed = append(res.Smoothed, ma.Add(reward))
			if opts.CheckpointEvery > 0 && (ep+1)%opts.CheckpointEvery == 0 {
				if agents := prov.Agents(); len(agents) > 0 {
					snap, err := agents[0].Save()
					if err != nil {
						return err
					}
					res.Checkpoints = append(res.Checkpoints, snap)
					res.CheckpointEp = append(res.CheckpointEp, ep+1)
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// trainBedOptions is the testbed every training episode runs on.
func trainBedOptions(opts TrainOpts) harness.Options {
	return harness.Options{Seed: opts.Seed, Spec: opts.Spec, SLOMargin: 1.6, CalibrationN: 6}
}

// trainEpisode runs one training episode on b, which New or Reset has just
// built: load, the anomaly campaign and a training FIRM controller acting
// through rp, whose transitions go to sink. It returns the episode reward.
func trainEpisode(b *harness.Bench, ext *detect.Extractor, rp *core.Policies, sink core.TransitionSink) float64 {
	b.AttachWorkload(workload.Constant{RPS: 120})
	cfg := core.DefaultConfig()
	cfg.Training = true
	cfg.IdleReclaim = 0 // hold provisioning constant while learning mitigation
	cfg.Sink = sink     // divert experience to the central learner
	ctl := b.AttachFIRM(cfg, rp, ext)
	camp := injector.DefaultCampaign(b.Injector, b.Containers())
	// Denser, longer injections than steady state accelerate exploration
	// (§3.6: the injector exists to span the trade-off space quickly);
	// sustained anomalies force the agent to mitigate rather than wait out
	// transient contention.
	camp.MeanInterarrival = 3 * sim.Second
	camp.MinDuration = 8 * sim.Second
	camp.MaxDuration = 16 * sim.Second
	camp.MinIntensity = 0.6
	camp.Start()
	b.Eng.RunFor(episodeDuration)
	camp.Stop()
	reward := ctl.EpisodeReward
	ctl.ResetEpisode() // terminal-flush outstanding transitions into sink
	return reward
}

// pretrainGuided behaviour-clones the guided mitigation rule
// (agent.GuidedAction) into the actor over synthetic states. width is the
// worker count of the clone; it never changes the weights.
func pretrainGuided(ag *rl.Agent, seed int64, width int) {
	r := sim.Stream(seed, "bc-pretrain")
	const n = 3000
	states := make([][]float64, n)
	actions := make([][]float64, n)
	for i := 0; i < n; i++ {
		st := make([]float64, agent.StateDim)
		st[0] = r.Float64()           // SV
		st[1] = 0.5 + r.Float64()*1.5 // WC
		st[2] = r.Float64()           // RC
		for j := 3; j < agent.StateDim; j++ {
			st[j] = r.Float64() * 2 // RU per resource
		}
		states[i] = st
		actions[i] = agent.GuidedAction(st)
	}
	if err := ag.PretrainActor(states, actions, 200, 3e-3, width); err != nil {
		panic(err) // synthetic data cannot mismatch
	}
}

// Fig11a reproduces the learning curves: total reward during training for
// one-for-all, one-for-each, and transferred agents on Train-Ticket.
type Fig11aResult struct {
	Episodes []int
	Series   map[string][]float64 // variant name → smoothed rewards
	// FinalReward per variant (mean of last quarter).
	FinalReward map[string]float64
	// ConvergedEpisode: first episode whose smoothed reward reaches 90% of
	// the final plateau (the paper's "convergence" notion).
	ConvergedEpisode map[string]int
}

// fig11aCurve is one trained variant's smoothed reward curve (fields
// exported for the job set's wire form).
type fig11aCurve struct {
	Variant  Variant
	Smoothed []float64
}

// fig11aJobs declares Fig. 11(a)'s two training cells. One-for-Each is one
// cell. One-for-All is the other, and it goes on to train Transferred from
// its live base inside the same cell, because that training starts from
// the base's trained target networks too. All variants share the
// experiment seed on purpose — §4.3 trains every model "subjected to the
// same sequence of performance anomaly injections".
func fig11aJobs(x Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[[]fig11aCurve], error) {
	spec := topology.TrainTicket()
	train := func(v Variant, base *rl.Agent) (*TrainResult, error) {
		return Train(TrainOpts{Pool: x.Pool, Seed: seed, Spec: spec, Episodes: sc.EpisodeCount, Variant: v, Base: base})
	}
	return []runner.Job[[]fig11aCurve]{
		{Key: "fig11a/one-for-all", Run: func(int64) ([]fig11aCurve, error) {
			all, err := train(OneForAll, nil)
			if err != nil {
				return nil, err
			}
			trans, err := train(Transferred, all.Provider.Agents()[0])
			if err != nil {
				return nil, err
			}
			return []fig11aCurve{{OneForAll, all.Smoothed}, {Transferred, trans.Smoothed}}, nil
		}},
		{Key: "fig11a/one-for-each", Run: func(int64) ([]fig11aCurve, error) {
			each, err := train(OneForEach, nil)
			if err != nil {
				return nil, err
			}
			return []fig11aCurve{{OneForEach, each.Smoothed}}, nil
		}},
	}, nil
}

// fig11aReduce merges the three training campaigns' curves. Within a
// variant, episode rollouts parallelize on internal/rollout's actor-learner
// engine, drawing workers from the same pool as the jobs.
func fig11aReduce(sc Scale, _ int64, _ noInput, cells [][]fig11aCurve) (*Fig11aResult, error) {
	res := &Fig11aResult{
		Series:           map[string][]float64{},
		FinalReward:      map[string]float64{},
		ConvergedEpisode: map[string]int{},
	}
	for i := 0; i < sc.EpisodeCount; i++ {
		res.Episodes = append(res.Episodes, i+1)
	}
	for _, cell := range cells {
		for _, c := range cell {
			name := c.Variant.String()
			res.Series[name] = c.Smoothed
			tail := c.Smoothed[len(c.Smoothed)*3/4:]
			res.FinalReward[name] = stats.Mean(tail)
			res.ConvergedEpisode[name] = convergedAt(c.Smoothed, 0.9)
		}
	}
	return res, nil
}

func convergedAt(smoothed []float64, frac float64) int {
	if len(smoothed) == 0 {
		return 0
	}
	plateau := stats.Mean(smoothed[len(smoothed)*3/4:])
	for i, v := range smoothed {
		if v >= frac*plateau {
			return i + 1
		}
	}
	return len(smoothed)
}

// Report converts the Fig. 11(a) result into its typed record: one row and
// one smoothed-reward curve per training variant.
func (r *Fig11aResult) Report() *report.Report {
	rep := report.New("fig11a")
	eps := make([]float64, len(r.Episodes))
	for i, ep := range r.Episodes {
		eps[i] = float64(ep)
	}
	for _, name := range sortedKeys(r.Series) {
		rep.Row(name).
			Val("final-reward", "", r.FinalReward[name]).
			Val("converged-episode", "episode", float64(r.ConvergedEpisode[name]))
		rep.AddSeries("reward/"+name, "", eps, r.Series[name])
	}
	return rep
}

// Fig11bResult reproduces mitigation time vs training progress, with the
// rule-based baselines as horizontal references.
type Fig11bResult struct {
	Episodes      []int
	SingleRL      []float64 // mean mitigation time (s) per checkpoint
	MultiRL       []float64
	HPABaseline   float64
	AIMDBaseline  float64
	FinalSingleRL float64
}

// checkpoints is fig11b's job input: the single-RL training run's
// snapshots and the episodes they were taken after.
type checkpoints struct {
	Episodes  []int
	Snapshots []rl.Snapshot
}

// fig11bJobs declares Fig. 11(b)'s evaluations: one job per checkpoint,
// one for the fine-tuned multi-RL pipeline, one per rule-based baseline.
// Every evaluation runs the identical seed+500 event protocol — the figure
// compares policies on the same anomaly sequence — and each job builds its
// own agent from a read-only snapshot, so nothing mutable crosses workers.
func fig11bJobs(x Exec, sc Scale, seed int64, cp checkpoints) ([]runner.Job[float64], error) {
	spec := topology.TrainTicket()
	events := 10
	if sc.DurationMul >= 1 {
		events = 20
	}
	var jobs []runner.Job[float64]
	for i, snap := range cp.Snapshots {
		jobs = append(jobs, runner.Job[float64]{
			Key: runner.Key("fig11b", "checkpoint", cp.Episodes[i]),
			Run: func(int64) (float64, error) {
				ag, err := loadAgent(snap, seed+100)
				if err != nil {
					return 0, err
				}
				return evalMitigation(spec, seed+500, core.Shared(ag), events)
			},
		})
	}
	return append(jobs, runner.Job[float64]{
		// Multi-RL: per-service agents transferred from the trained
		// single-RL base and fine-tuned (§3.4's deployment path for
		// tailored agents).
		Key: "fig11b/multi-rl",
		Run: func(int64) (float64, error) {
			base := rl.New(rl.DefaultConfig())
			if n := len(cp.Snapshots); n > 0 {
				if err := base.Load(cp.Snapshots[n-1]); err != nil {
					return 0, err
				}
			}
			multi, err := Train(TrainOpts{Pool: x.Pool, Seed: seed, Spec: spec, Episodes: sc.EpisodeCount / 2,
				Variant: Transferred, Base: base})
			if err != nil {
				return 0, err
			}
			return evalMitigation(spec, seed+500, multi.Provider, events)
		},
	}, runner.Job[float64]{
		Key: "fig11b/baseline/hpa",
		Run: func(int64) (float64, error) {
			return evalBaselineMitigation(spec, seed+500, PolicyHPA, events)
		},
	}, runner.Job[float64]{
		Key: "fig11b/baseline/aimd",
		Run: func(int64) (float64, error) {
			return evalBaselineMitigation(spec, seed+500, PolicyAIMD, events)
		},
	}), nil
}

// fig11bCheckpoints trains Fig. 11(b)'s single-RL agent on the coordinator.
// Checkpoints are snapshots of one evolving learner — the rollout engine
// applies gradients in fixed episode order even when episode rollouts run
// in parallel — so training runs here and only the evaluations fan out.
func fig11bCheckpoints(x Exec, sc Scale, seed int64) (checkpoints, error) {
	single, err := Train(TrainOpts{
		Pool: x.Pool, Seed: seed, Spec: topology.TrainTicket(), Episodes: sc.EpisodeCount,
		Variant: OneForAll, CheckpointEvery: sc.CheckpointEvery,
	})
	if err != nil {
		return checkpoints{}, err
	}
	return checkpoints{Episodes: single.CheckpointEp, Snapshots: single.Checkpoints}, nil
}

// fig11bReduce merges the evaluations of the checkpointed agents: every
// checkpoint is loaded into a fresh controller and subjected to a
// one-minute continuous injection campaign; mitigation time is measured as
// in §4.3.
func fig11bReduce(_ Scale, _ int64, cp checkpoints, mts []float64) (*Fig11bResult, error) {
	n := len(cp.Snapshots)
	res := &Fig11bResult{
		Episodes: cp.Episodes, SingleRL: append([]float64(nil), mts[:n]...),
		HPABaseline: mts[n+1], AIMDBaseline: mts[n+2],
	}
	if n > 0 {
		res.FinalSingleRL = res.SingleRL[n-1]
	}
	for range res.Episodes {
		res.MultiRL = append(res.MultiRL, mts[n]) // final-policy reference line
	}
	return res, nil
}

// mitigationMaxDur is how long a sustained evaluation anomaly lasts; a
// policy that never mitigates scores the full duration.
const mitigationMaxDur = 25 * sim.Second

// The mitigation protocol samples for violations every mitigationSample,
// over the traces of the last mitigationWindow.
const (
	mitigationWindow = 2 * sim.Second
	mitigationSample = 500 * sim.Millisecond
)

// measureMitigation runs the §4.3 evaluation protocol: sustained anomalies
// are injected one at a time and the time from SLO-violation onset to
// clearance is measured per event. attach installs the policy under test on
// the bench before the workload starts.
func measureMitigation(spec *topology.Spec, seed int64, events int,
	attach func(*harness.Bench)) (float64, error) {

	b, err := harness.New(harness.Options{Seed: seed, Spec: spec, SLOMargin: 1.6})
	if err != nil {
		return 0, err
	}
	attach(b)
	b.AttachWorkload(workload.Constant{RPS: 120})
	r := sim.Stream(seed, "mitigation-eval")
	kinds := []injector.Kind{
		injector.CPUStress, injector.MemBWStress, injector.LLCStress,
		injector.IOStress, injector.NetBWStress,
	}
	// Victims are drawn from load-bearing containers (queueing victims are
	// the ones whose SLO violations require active mitigation; a stressor
	// on an idle service is absorbed and measures nothing).
	loadedTargets := func() []*cluster.Container {
		var out []*cluster.Container
		for _, ct := range b.Containers() {
			if ct.Ready() && ct.Utilization().MaxElem() >= 0.15 {
				out = append(out, ct)
			}
		}
		if len(out) == 0 {
			out = b.Containers()
		}
		return out
	}
	var times []float64
	// The violation sampler below reuses one incremental window per bench
	// instead of re-selecting and sorting mitigationWindow of traces each
	// sample; Monitor.Violated is bit-identical to the batch
	// detect.Violated. The store must keep what the monitor holds until its
	// next advance.
	if need := mitigationWindow + mitigationSample; b.DB.Window() < need {
		panic(fmt.Sprintf("experiments: the trace store keeps %v of traces, the mitigation monitor reads %v", b.DB.Window(), need))
	}
	mon := detect.NewMonitor(256)
	b.DB.Observe(mon)
	for ev := 0; ev < events; ev++ {
		b.Eng.RunFor(4 * sim.Second) // calm period
		targets := loadedTargets()
		tgt := targets[r.Intn(len(targets))]
		kind := kinds[r.Intn(len(kinds))]
		stop, err := b.Injector.Inject(injector.Injection{
			Kind: kind, Target: tgt, Intensity: 1.0, Duration: mitigationMaxDur,
		})
		if err != nil {
			return 0, err
		}
		t0 := b.Eng.Now()
		deadline := t0 + mitigationMaxDur
		violStart := sim.Time(-1)
		mitigated := sim.Time(-1)
		firstClear := sim.Time(-1)
		clearStreak := 0
		violStreak := 0
		firstViol := sim.Time(-1)
		for b.Eng.Now() < deadline {
			b.Eng.RunFor(mitigationSample)
			mon.Advance(b.Eng.Now() - mitigationWindow)
			v := mon.Violated(b.App.SLO)
			if violStart < 0 {
				// Confirmed onset: two consecutive violated samples (a
				// single P99 blip at injection time is not an event).
				if v {
					if violStreak == 0 {
						firstViol = b.Eng.Now()
					}
					violStreak++
					if violStreak >= 2 {
						violStart = firstViol
					}
				} else {
					violStreak = 0
				}
				continue
			}
			// Hysteresis: the violation counts as mitigated only after
			// three consecutive clear samples (1.5s), so a P99 flickering
			// around the SLO is not scored as instant mitigation.
			if !v {
				if clearStreak == 0 {
					firstClear = b.Eng.Now()
				}
				clearStreak++
				if clearStreak >= 3 {
					mitigated = firstClear
					break
				}
			} else {
				clearStreak = 0
			}
		}
		stop()
		if violStart < 0 {
			continue // anomaly did not trigger a violation: not an event
		}
		if mitigated < 0 {
			times = append(times, mitigationMaxDur.Seconds())
		} else {
			times = append(times, (mitigated - violStart).Seconds())
		}
	}
	if len(times) == 0 {
		return 0, fmt.Errorf("mitigation eval: no violations triggered")
	}
	return stats.Mean(times), nil
}

// evalMitigation measures mean mitigation time for a FIRM policy.
func evalMitigation(spec *topology.Spec, seed int64, prov *core.Policies, events int) (float64, error) {
	return measureMitigation(spec, seed, events, func(b *harness.Bench) {
		cfg := core.DefaultConfig()
		// Mitigation time is compared at equal provisioning: the reclaim
		// path (FIRM's efficiency objective) is evaluated separately in
		// Fig. 10(b).
		cfg.IdleReclaim = 0
		b.AttachFIRM(cfg, prov, nil)
	})
}

func evalBaselineMitigation(spec *topology.Spec, seed int64, p Policy, events int) (float64, error) {
	return measureMitigation(spec, seed, events, func(b *harness.Bench) {
		switch p {
		case PolicyHPA:
			b.AttachHPA()
		case PolicyAIMD:
			b.AttachAIMD()
		}
	})
}

// Report converts the Fig. 11(b) result into its typed record: mitigation
// time per checkpoint episode for the RL arms, plus the rule-based
// baselines.
func (r *Fig11bResult) Report() *report.Report {
	rep := report.New("fig11b")
	eps := make([]float64, len(r.Episodes))
	for i, ep := range r.Episodes {
		eps[i] = float64(ep)
	}
	rep.AddSeries("single-rl", "s", eps, r.SingleRL)
	rep.AddSeries("multi-rl-final", "s", eps, r.MultiRL)
	rep.Row("baselines").
		Val("k8s-autoscaling", "s", r.HPABaseline).
		Val("aimd", "s", r.AIMDBaseline)
	rep.Row("final").Val("single-rl", "s", r.FinalSingleRL)
	return rep
}
