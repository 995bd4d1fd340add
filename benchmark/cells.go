package main

// This is the only file of the benchmark that imports firm/internal/...: a
// later API refactor is followed here and nowhere else. Everything below
// goes through public functions of the packages it names.

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
	"time"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/cpath"
	"firm/internal/detect"
	"firm/internal/experiments"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/perf"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/telemetry"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Span names. Each phase span <name> is reported as <name>_ms.
const (
	spanSetup     = "setup"
	spanGenerate  = "topology.generate"
	spanNew       = "harness.new"
	spanCalibrate = "app.calibrate"
	spanPretrain  = "detect.pretrain"
	spanAttach    = "harness.attach"
	spanSimulate  = "sim.run"
	spanCollect   = "tracedb.collect"
)

// phaseSpans are the spans reported as per-layer phase metrics.
var phaseSpans = []string{spanGenerate, spanNew, spanCalibrate, spanPretrain, spanAttach, spanSimulate, spanCollect}

// tracedSlices is how many equal Eng.RunFor calls the traced repetition
// splits the simulate section into; counters are read at each boundary.
const tracedSlices = 20

// systemSeed fixes the system under test — generated topology, testbed,
// anomaly schedule, agent weights, the whole of Train — so that -seed
// shapes the offered load and nothing else: which requests arrive when is
// the generated input, and the program sees only that. A seed that also
// redrew the topology or the anomaly schedule would move every metric by
// tens of percent and leave no bound to hold a later change to. At
// -seed 42 the two coincide and each cell is exactly the experiments
// package's own (fig10's FIRM arm, gensweep's 1k and 10k cells).
const systemSeed = 42

// cellOpts selects one repetition's configuration.
type cellOpts struct {
	seed int64 // seeds the arrival stream
	// serial runs the 1-shard × 1-worker (RolloutWorkers:1) baseline of a
	// parallel workload instead of its 2-way configuration.
	serial bool
	// setupOnly stops once the testbed is ready to simulate. On rl-train,
	// whose set-up is behind Train, it runs Train at Episodes:1 and
	// records that as the setup span: time to the first trained episode.
	setupOnly bool
	smoke     bool
	traced    bool
}

// outcome is what one repetition hands back besides its spans.
type outcome struct {
	simSeconds  float64 // simulated seconds the simulate section advanced
	liveHeapMB  float64 // HeapAlloc after a forced GC, testbed still reachable
	fingerprint uint64
	// plane holds the simulated-plane end-to-end metrics that apply to the
	// workload, by metric name.
	plane map[string]float64
	// layer holds exact per-layer counts by metric name, plus (traced
	// repetitions only) cpath.extract_ns.
	layer map[string]float64
}

// cell is one workload: run executes a single repetition.
type cell struct {
	name     string
	why      string
	parallel bool // has a serial baseline, so par_speedup applies
	run      func(o cellOpts, rec *recorder) (outcome, error)
}

var cells = []cell{
	{name: "firm-loop", run: firmLoop,
		why: "fig10's FIRM cell: Social Network, 15 nodes, 250 rps, anomaly campaign, 240 sim-s; the only workload where core, detect, cpath, svm and rl inference run, on top of tracing and telemetry"},
	{name: "mesh-1k", run: mesh1k,
		why: "1,000 generated services on one engine for 60 sim-s, tracing and telemetry on, no controller: deep event heap, ~500-span traces; a core/detect/rl change must not move it"},
	{name: "mesh-10k-sharded", run: mesh10k, parallel: true,
		why: "10,000 generated services on 2 shards x 2 workers for 5 sim-s (10 in the issue, halved for the time cap): mailboxes, lookahead barriers, ShardedApp; no trace or telemetry"},
	{name: "rl-train", run: rlTrain, parallel: true,
		why: "experiments.Train on Train-Ticket, 24 episodes (48 in the issue, halved for the time cap), 2 rollout workers: nn/rl train steps and actor-learner overlap dominate; always seeded 42"},
}

// runSliced advances the simulation by dur in equal slices (tracedSlices
// when traced, else one), calling sample after each.
func runSliced(o cellOpts, dur sim.Time, runFor func(sim.Time), sample func()) {
	n := sim.Time(1)
	if o.traced {
		n = tracedSlices
	}
	for i := sim.Time(0); i < n; i++ {
		runFor(dur*(i+1)/n - dur*i/n)
		sample()
	}
}

// startArrivals starts the open-loop generator as the harness's
// AttachWorkload does, but on the benchmark's arrival seed instead of the
// testbed's.
func startArrivals(target workload.Target, p workload.Pattern, meter *telemetry.Meter, seed int64) *workload.Generator {
	g := workload.NewGenerator(target, p, meter, seed)
	g.Start()
	return g
}

// meshPattern is gensweep's composite heavy-traffic pattern: a diurnal
// base, a flash crowd a third of the way in, and a seeded per-user session
// stream, all parameterised by the run length.
func meshPattern(dur sim.Time) (workload.Pattern, error) {
	sessions, err := workload.NewSessions(
		workload.Diurnal{Base: 1.5, Amplitude: 0.5, Period: dur}, 3, dur/8, dur, systemSeed)
	if err != nil {
		return nil, err
	}
	return workload.Sum{
		workload.Diurnal{Base: 60, Amplitude: 20, Period: dur},
		workload.FlashCrowd{
			Base: workload.Constant{}, Peak: 120,
			Start: dur / 3, RampUp: dur / 20, Hold: dur / 6, Decay: dur / 10,
		},
		workload.Scaled{P: sessions, K: 1},
	}, nil
}

// generateMesh is the mesh workloads' generate phase: the topology and the
// traffic pattern, inside the topology.generate span.
func generateMesh(p topology.Params, dur sim.Time, rec *recorder) (spec *topology.Spec, pattern workload.Pattern, err error) {
	rec.do(spanGenerate, func() {
		if spec, err = topology.Generate(p, systemSeed); err == nil {
			pattern, err = meshPattern(dur)
		}
	})
	return spec, pattern, err
}

// meshNodes sizes the cluster as gensweep does: 2-core containers, one
// replica per service, one spare node.
func meshNodes(services int) []cluster.HardwareProfile {
	perNode := int(cluster.XeonProfile.Capacity[cluster.CPU]) / 2
	nodes := make([]cluster.HardwareProfile, (services+perNode-1)/perNode+1)
	for i := range nodes {
		nodes[i] = cluster.XeonProfile
	}
	return nodes
}

// benchCounts reads a single-engine testbed's public counters into the
// per-layer count metrics and checks request conservation. calibrated is
// the number of requests App.Calibrate submitted before the generator.
func benchCounts(b *harness.Bench, calibrated uint64, traced bool, rec *recorder) (map[string]float64, error) {
	submitted := b.Gen.Submitted + calibrated
	inFlight := uint64(b.Coord.PendingCount())
	if submitted != b.App.Completed+b.App.Dropped+inFlight {
		return nil, fmt.Errorf("request conservation broken: submitted %d != completed %d + dropped %d + pending %d",
			submitted, b.App.Completed, b.App.Dropped, inFlight)
	}
	events := b.Eng.Steps()
	counts := map[string]float64{
		"sim.events":                     float64(events),
		"sim.events_per_request":         float64(events) / float64(submitted),
		"sim.pending_max":                rec.maxCount("sim.pending"),
		"sim.shard_events_max_over_mean": 1,
		"workload.submitted":             float64(b.Gen.Submitted),
		"app.completed":                  float64(b.App.Completed),
		"app.dropped":                    float64(b.App.Dropped),
		"app.violations":                 float64(b.App.Violations),
		"trace.pending_max":              rec.maxCount("trace.pending"),
		"tracedb.stored":                 float64(b.DB.Total()),
		"tracedb.len":                    float64(b.DB.Len()),
		"cluster.requested_cpu":          b.Cluster.TotalRequestedCPU(),
	}
	if traced {
		// Window copies every retained sample, so the count is taken on
		// the traced repetition only: alloc_mb comes from the others.
		var samples int
		for _, c := range b.Containers() {
			samples += len(b.Col.Window(c.ID, 0))
		}
		counts["telemetry.samples"] = float64(samples)
	}
	return counts, nil
}

// sampleBench reads the counters a traced run plots per simulate slice.
func sampleBench(b *harness.Bench, rec *recorder) func() {
	return func() {
		rec.count("sim.events", float64(b.Eng.Steps()))
		rec.count("sim.pending", float64(b.Eng.Pending()))
		rec.count("trace.pending", float64(b.Coord.PendingCount()))
		rec.count("app.completed", float64(b.App.Completed))
		rec.count("tracedb.len", float64(b.DB.Len()))
	}
}

// collectBench is the collect section of a single-engine repetition:
// latency extraction from the trace store and the percentile, then the
// fingerprint over every simulated observable.
func collectBench(b *harness.Bench, o cellOpts, rec *recorder, out *outcome) {
	var lats []float64
	rec.do(spanCollect, func() {
		lats = b.DB.Latencies(tracedb.Query{})
		out.plane["sim_p99_ms"] = stats.Percentile(lats, 99)
	})
	out.plane["sim_drop_frac"] = float64(b.App.Dropped) / float64(b.App.Completed+b.App.Dropped)
	out.fingerprint = fingerprint([]uint64{b.Eng.Steps(), b.Gen.Submitted, b.App.Completed, b.App.Dropped, b.App.Violations}, lats, nil)
	if o.traced {
		traces := b.DB.Select(tracedb.Query{Limit: 256})
		out.layer["cpath.extract_ns"] = nsPerCall(len(traces), func() {
			for _, t := range traces {
				cpath.Extract(t)
			}
		})
	}
}

// firmLoop is the fig10 FIRM cell: Social Network on the 15-node paper
// cluster, 250 rps, a shared inference-only agent, the default anomaly
// campaign.
func firmLoop(o cellOpts, rec *recorder) (outcome, error) {
	dur := 240 * sim.Second
	if o.smoke {
		dur = 8 * sim.Second
	}
	out := outcome{plane: map[string]float64{}}
	var (
		b          *harness.Bench
		ctl        *core.Controller
		ext        *detect.Extractor
		err        error
		calibrated uint64
		limitSum   float64
		limitN     int
	)
	rec.do(spanSetup, func() {
		var spec *topology.Spec
		rec.do(spanGenerate, func() { spec = topology.SocialNetwork() })
		rec.do(spanNew, func() { b, err = harness.New(harness.Options{Seed: systemSeed, Spec: spec}) })
		if err != nil {
			return
		}
		rec.do(spanCalibrate, func() { b.App.Calibrate(20, 1.6) })
		calibrated = b.App.Completed + b.App.Dropped
		rec.do(spanPretrain, func() { ext = harness.NewExtractor(systemSeed) })
		rec.do(spanAttach, func() {
			b.Gen = startArrivals(b.App, workload.Constant{RPS: 250}, b.Meter, o.seed)
			cfg := core.DefaultConfig()
			cfg.IdleReclaim = 3
			cfg.ReclaimFactor = 0.9
			ctl = b.AttachFIRM(cfg, harness.SharedAgent(systemSeed), ext)
			injector.DefaultCampaign(b.Injector, b.Containers()).Start()
			// Per-second CPU-limit sampling, as experiments.Run does for fig10b.
			sim.NewTicker(b.Eng, sim.Second, func() {
				for _, c := range b.Containers() {
					limitSum += c.Limits()[0] * 100
					limitN++
				}
			}).Start()
		})
	})
	if err != nil || o.setupOnly {
		return out, err
	}
	if err := rec.simulate(func() { runSliced(o, dur, b.Eng.RunFor, sampleBench(b, rec)) }); err != nil {
		return out, err
	}
	out.simSeconds = dur.Seconds()
	out.liveHeapMB = liveHeapMB()
	if out.layer, err = benchCounts(b, calibrated, o.traced, rec); err != nil {
		return out, err
	}
	out.layer["core.mitigations"] = float64(len(ctl.Mitigations))
	collectBench(b, o, rec, &out)
	out.plane["slo_violation_frac"] = float64(b.App.Violations) / float64(b.App.Completed)
	out.plane["cpu_limit_mean_pct"] = limitSum / float64(limitN)
	runtime.KeepAlive(b)
	return out, nil
}

// mesh1k is the gensweep 1,000-service cell: one engine, tracing and
// telemetry on, no controller.
func mesh1k(o cellOpts, rec *recorder) (outcome, error) {
	p := topology.Params{Services: 1000, Endpoints: 6, MaxFanout: 3, Depth: 6}
	dur := 60 * sim.Second
	if o.smoke {
		p.Services, dur = 100, 3*sim.Second
	}
	out := outcome{plane: map[string]float64{}}
	var (
		b   *harness.Bench
		err error
	)
	rec.do(spanSetup, func() {
		spec, pattern, gerr := generateMesh(p, dur, rec)
		if err = gerr; err != nil {
			return
		}
		rec.do(spanNew, func() {
			b, err = harness.New(harness.Options{Seed: systemSeed, Spec: spec, Nodes: meshNodes(p.Services)})
		})
		if err != nil {
			return
		}
		rec.do(spanAttach, func() { b.Gen = startArrivals(b.App, pattern, b.Meter, o.seed) })
	})
	if err != nil || o.setupOnly {
		return out, err
	}
	if err := rec.simulate(func() { runSliced(o, dur, b.Eng.RunFor, sampleBench(b, rec)) }); err != nil {
		return out, err
	}
	out.simSeconds = dur.Seconds()
	out.liveHeapMB = liveHeapMB()
	if out.layer, err = benchCounts(b, 0, o.traced, rec); err != nil {
		return out, err
	}
	collectBench(b, o, rec, &out)
	runtime.KeepAlive(b)
	return out, nil
}

// mesh10k is the gensweep 10,000-service cell on the sharded engine; the
// latencies arrive through the result hook.
func mesh10k(o cellOpts, rec *recorder) (outcome, error) {
	p := topology.Params{Services: 10000, Endpoints: 12, MaxFanout: 2, Depth: 8}
	dur := 5 * sim.Second
	if o.smoke {
		p.Services, dur = 400, 2*sim.Second
	}
	ways := 2
	if o.serial {
		ways = 1
	}
	out := outcome{plane: map[string]float64{}}
	var (
		b    *harness.ShardedBench
		lats []float64
		err  error
	)
	rec.do(spanSetup, func() {
		spec, pattern, gerr := generateMesh(p, dur, rec)
		if err = gerr; err != nil {
			return
		}
		rec.do(spanNew, func() {
			b, err = harness.NewSharded(harness.ShardedOptions{Seed: systemSeed, Spec: spec, Shards: ways})
		})
		if err != nil {
			return
		}
		rec.do(spanAttach, func() {
			b.App.SetResultHook(func(r app.Result) {
				if !r.Dropped {
					lats = append(lats, r.Latency.Millis())
				}
			})
			b.Gen = startArrivals(b.App, pattern, nil, o.seed)
			b.Eng.SetWorkers(ways)
		})
	})
	if err != nil || o.setupOnly {
		return out, err
	}
	sample := func() {
		rec.count("sim.events", float64(b.Eng.Steps()))
		rec.count("sim.pending", float64(b.Eng.Pending()))
		rec.count("app.completed", float64(b.App.Completed))
	}
	if err := rec.simulate(func() { runSliced(o, dur, b.Eng.RunFor, sample) }); err != nil {
		return out, err
	}
	out.simSeconds = dur.Seconds()
	out.liveHeapMB = liveHeapMB()

	submitted := b.Gen.Submitted
	if b.App.Completed+b.App.Dropped > submitted {
		return out, fmt.Errorf("request conservation broken: completed %d + dropped %d > submitted %d",
			b.App.Completed, b.App.Dropped, submitted)
	}
	events := b.Eng.Steps()
	var maxShard uint64
	for i := 0; i < b.Eng.Shards(); i++ {
		maxShard = max(maxShard, b.Eng.Shard(i).Steps())
	}
	var requested float64
	for _, cl := range b.Clusters {
		requested += cl.TotalRequestedCPU()
	}
	out.layer = map[string]float64{
		"sim.events":                     float64(events),
		"sim.events_per_request":         float64(events) / float64(submitted),
		"sim.pending_max":                rec.maxCount("sim.pending"),
		"sim.shard_events_max_over_mean": float64(maxShard) * float64(b.Eng.Shards()) / float64(events),
		"workload.submitted":             float64(submitted),
		"app.completed":                  float64(b.App.Completed),
		"app.dropped":                    float64(b.App.Dropped),
		"app.violations":                 float64(b.App.Violations),
		"cluster.requested_cpu":          requested,
	}
	rec.do(spanCollect, func() { out.plane["sim_p99_ms"] = stats.Percentile(lats, 99) })
	out.plane["sim_drop_frac"] = float64(b.App.Dropped) / float64(submitted)
	out.fingerprint = fingerprint([]uint64{events, submitted, b.App.Completed, b.App.Dropped, b.App.Violations}, lats, nil)
	runtime.KeepAlive(b)
	return out, nil
}

// rlTrain is the §4.3 training protocol as users run it.
func rlTrain(o cellOpts, rec *recorder) (outcome, error) {
	opts := experiments.TrainOpts{
		Seed: systemSeed, Spec: topology.TrainTicket(),
		Episodes: 24, Variant: experiments.OneForAll, RolloutWorkers: 2,
	}
	if o.smoke {
		opts.Episodes = 2
	}
	if o.serial {
		opts.RolloutWorkers = 1
	}
	if o.setupOnly {
		opts.Episodes = 1
	}
	out := outcome{plane: map[string]float64{}}
	if o.traced {
		// Train pays these per call (pretrain) and per episode (new,
		// calibrate) behind its API; time one of each beside it, with
		// Train's own options, so the phase rows exist on this workload.
		var err error
		rec.do("probe.episode-testbed", func() {
			rec.do(spanPretrain, func() { harness.NewExtractor(systemSeed) })
			var b *harness.Bench
			rec.do(spanNew, func() { b, err = harness.New(harness.Options{Seed: systemSeed, Spec: opts.Spec}) })
			if err == nil {
				rec.do(spanCalibrate, func() { b.App.Calibrate(6, 1.6) })
			}
		})
		if err != nil {
			return out, err
		}
	}
	var res *experiments.TrainResult
	var err error
	train := func() { res, err = experiments.Train(opts) }
	if o.setupOnly {
		rec.do(spanSetup, train)
	} else if perr := rec.simulate(train); perr != nil {
		return out, perr
	}
	if err != nil {
		return out, err
	}
	out.simSeconds = float64(opts.Episodes) * 20 // experiments' episodeDuration
	out.liveHeapMB = liveHeapMB()
	if len(res.Rewards) != opts.Episodes {
		return out, fmt.Errorf("Train returned %d episode rewards, want %d", len(res.Rewards), opts.Episodes)
	}
	agent := res.Provider.Agents()[0]
	snap, err := agent.Save()
	if err != nil {
		return out, err
	}
	out.fingerprint = fingerprint(nil, res.Rewards, append(snap.Actor, snap.Critic...))
	out.plane["train_reward"] = stats.Mean(res.Smoothed[max(0, len(res.Smoothed)-8):])
	out.layer = map[string]float64{
		"rl.transitions":   float64(agent.Buffer().Len()),
		"rollout.episodes": float64(len(res.Rewards)),
	}
	runtime.KeepAlive(res)
	return out, nil
}

// perfProbes maps per-call probe metrics to internal/perf registry names.
var perfProbes = [][2]string{
	{"core.tick_ns", "core-tick"},
	{"stats.window_ns", "stats-window"},
	{"tracedb.select_ns", "tracedb-select"},
	{"telemetry.sample_ns", "telemetry-add"},
	{"detect.candidates_ns", "detect-features"},
	{"nn.forward_batch_ns", "nn-forward-batch"},
	{"rl.train_step_ns", "rl-train-step-batched"},
	{"rollout.round_ns", "rollout-round-overlap"},
	{"topology.generate_1k_ns", "topology-generate"},
	{"topology.generate_10k_ns", "topology-generate-10k"},
	{"workload.arrivals_ns", "workload-arrivals"},
	{"sim.shard_window_ns", "shard-step"},
	{"scenario.step_ns", "scenario-step"},
}

// probeCache holds runProbes' result: the probes do not depend on the
// workload, so a process that measures several takes them once.
var probeCache map[string]float64

// runProbes measures the per-call probes: the perf registry's through
// perf.Run, and two the benchmark owns (cpath.extract_ns is taken by the
// traced repetition, on its own stored traces).
func runProbes(smoke bool) (map[string]float64, error) {
	if probeCache != nil {
		return probeCache, nil
	}
	// perf.Run drives testing.Benchmark, whose run length is a testing
	// flag: a probe needs a stable ns/call, not the default second each.
	testing.Init()
	benchtime := "100ms"
	if smoke {
		benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	names := make([]string, len(perfProbes))
	for i, p := range perfProbes {
		names[i] = p[1]
	}
	results, err := perf.Run(names)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for i, r := range results {
		out[perfProbes[i][0]] = r.NsPerOp
	}

	// sim.event_ns: a bare engine dispatching no-op self-rescheduling
	// events at heap depth ~1k — the floor under every sim_speed.
	eng := sim.NewEngine(1)
	var tick func()
	var n sim.Time
	tick = func() {
		n++
		eng.Schedule(1+n*7919%1000, tick)
	}
	for i := 0; i < 1024; i++ {
		tick()
	}
	const events = 1 << 20
	out["sim.event_ns"] = nsPerCall(events, func() { eng.Drain(events) })

	// rl.act_ns: one deterministic policy action on the Table 4 actor.
	cfg := rl.DefaultConfig()
	ag := rl.New(cfg)
	state := make([]float64, cfg.StateDim)
	const acts = 1 << 14
	out["rl.act_ns"] = nsPerCall(acts, func() {
		for i := 0; i < acts; i++ {
			ag.Act(state)
		}
	})
	probeCache = out
	return out, nil
}

// nsPerCall times fn, which makes calls calls, and returns ns per call.
func nsPerCall(calls int, fn func()) float64 {
	if calls == 0 {
		return 0
	}
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
