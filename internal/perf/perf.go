// Package perf is the repo's microbenchmark registry: deterministic
// benchmarks of the hot paths the campaign loop multiplies — the
// controller tick, the sliding tail-latency window, trace-window
// selection, telemetry sampling, the batched DDPG train step, a
// behaviour-cloning call, the incremental localization features and a
// violated tick's whole localization, a double-buffered rollout round, the
// sharded engine's window, the request path, traced on one engine and
// mailed across two shards, sealing and decoding a trace, a container's
// first work item, and a training episode on a Reset testbed. It is the micro
// measurement surface: `go test -bench . ./internal/perf` runs the registry
// as ordinary sub-benchmarks (benchstat-able), and benchmark/ — the macro
// surface — takes its per-call probes from it through Run.
//
// Wall-clock (ns/op) varies by machine, but allocs/op is exact and
// deterministic, so that is what is gated: every entry carries its
// allocs/op ceiling (MaxAllocs) and the package's TestAllocBudgets fails
// `go test ./...` when an entry exceeds it.
package perf

import (
	"fmt"
	"runtime"
	"testing"

	"firm/internal/agent"
	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/nn"
	"firm/internal/rl"
	"firm/internal/rollout"
	"firm/internal/scenario"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/telemetry"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Seed fixes every microbenchmark's simulated setup.
const Seed = 42

// Benchmark is one registered microbenchmark.
type Benchmark struct {
	Name string
	Desc string
	Fn   func(b *testing.B)
	// MaxAllocs is the entry's allocs/op ceiling — the committed
	// perf-regression budget TestAllocBudgets enforces. The steady-state
	// entries are budgeted at (near) zero; the four that allocate by design
	// sit 1% above their best recorded run (73 / 2,994 / 4,762 / 47,623),
	// rounded up, which absorbs first-iteration growth amortised over a short
	// run. episode-reset's 230 is its 212 at -benchtime 200ms (≈145 ops, 2
	// vCPUs, go1.24.0) plus room for a run as short as 10 ops (225): its
	// first ops still grow the testbed's pools. Budgets are counted on one P
	// (TestAllocBudgets pins GOMAXPROCS to 1): how many goroutine records and
	// stacks a fan-out allocates depends on how its workers happen to be
	// scheduled, which is not the entry's doing.
	MaxAllocs int64
}

// Benchmarks returns the registry.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{"core-tick", "controller tick, incremental window (steady non-violated state)", CoreTick, 2},
		{"stats-window", "stats.Window insert+evict+P99 at W=1024", StatsWindow, 2},
		{"tracedb-select", "tracedb.SelectAppend of a 2s window from a store that has consumed 200 s of traces and keeps 3 s", TracedbSelect, 2},
		{"telemetry-add", "telemetry ring add at full retention", TelemetryAdd, 2},
		{"telemetry-sample", "one sampling pass over a warm 1,000-container cluster", TelemetrySample, 0},
		{"nn-forward-batch", "one batched actor forward (batch 64, Table 4 shape)", NNForwardBatch, 2},
		{"rl-train-step-batched", "one DDPG TrainStep on the matrix minibatch path (batch 64, Table 4 nets)", RLTrainStepBatched, 2},
		{"rl-pretrain", "one behaviour-cloning call: 3,000 demonstrations × 4 epochs through the Table 4 actor, min(GOMAXPROCS, 2) workers", RLPretrain, 74},
		{"detect-features", "incremental localizer rescore of a quiescent window (no trace arrives or leaves)", DetectFeatures, 2},
		{"detect-tick", "one violated tick's localization: fold 1 s of fresh traces, evict what left the window, rescore", DetectTick, 0},
		{"rollout-round-overlap", "one double-buffered rollout campaign: 2 actors + streaming learner", RolloutRoundOverlap, 3024},
		{"topology-generate", "procedural generation + validation of a 1,000-service spec", TopologyGenerate, 4810},
		{"topology-generate-10k", "procedural generation + validation of a 10,000-service spec (the sharded sweep's top cell)", TopologyGenerate10k, 48100},
		{"workload-arrivals", "thinned arrival sampling: 10ms of a 2,600 rps spiked-diurnal bound", WorkloadArrivals, 0},
		{"shard-step", "one lookahead window of an 8-shard ring at steady state (mail routing + window barrier)", ShardStep, 0},
		{"scenario-step", "one armed fault-scenario tick: recompute and apply every active site's pressure", ScenarioStep, 0},
		{"app-request", "one traced request through a 63-call generated endpoint on a warm testbed", AppRequest, 0},
		{"trace-seal", "seal the 63-span app-request trace, then decode and index it (ChildIndex.Reset)", TraceSeal, 0},
		{"sharded-request", "one request through a warm 2-shard, 60-service generated app, run until drained", ShardedRequest, 0},
		{"cluster-cold-submit", "the first Submit on each of 1,000 never-touched containers under per-instance noise, run to completion", ClusterColdSubmit, 3000},
		{"episode-reset", "one warm rollout-slot episode: Reset (with calibration) + 1 sim-s of Train-Ticket at 120 rps with a training FIRM controller", EpisodeReset, 230},
	}
}

// Find returns the named benchmark.
func Find(name string) (Benchmark, error) {
	for _, bm := range Benchmarks() {
		if bm.Name == name {
			return bm, nil
		}
	}
	return Benchmark{}, fmt.Errorf("perf: unknown benchmark %q", name)
}

// Result is one benchmark outcome.
type Result struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp float64
}

// Run executes the named benchmarks via testing.Benchmark and returns their
// results in the order named.
func Run(names []string) ([]Result, error) {
	selected := make([]Benchmark, len(names))
	for i, n := range names {
		bm, err := Find(n)
		if err != nil {
			return nil, err
		}
		selected[i] = bm
	}
	out := make([]Result, len(selected))
	for i, bm := range selected {
		out[i] = bm.run()
	}
	return out, nil
}

// run measures bm once, for as long as the testing package's -benchtime says.
func (bm Benchmark) run() Result {
	r := testing.Benchmark(bm.Fn)
	return Result{
		Name:        bm.Name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: float64(r.AllocsPerOp()),
	}
}

// tickBed is the shared testbed for the tick benchmarks: the paper's
// hotel-reservation app under steady load, traces and telemetry populated,
// a FIRM controller wired but not started (the benchmark drives ticks
// itself, at a frozen clock, so every iteration measures the same
// steady-state window).
type tickBed struct {
	tb  *harness.Bench
	ctl *core.Controller
}

// newTickBed panics (with context) on setup failure rather than calling
// b.Fatal: Run drives these functions through a bare testing.Benchmark
// (benchmark/ is a main package), where b.Fatal crashes inside the testing
// package with an unreadable nil-pointer panic. A descriptive panic is the
// only clean failure channel outside the test framework. traceWindow is
// the trace store's (harness.Options.TraceWindow; 0 = the controller's).
func newTickBed(traceWindow sim.Time) tickBed {
	tb, err := harness.New(harness.Options{
		Seed:         Seed,
		Spec:         topology.HotelReservation(),
		SLOMargin:    1.6,
		CalibrationN: 6,
		TraceWindow:  traceWindow,
	})
	if err != nil {
		panic(fmt.Sprintf("perf: tick testbed setup failed: %v", err))
	}
	tb.AttachWorkload(workload.Constant{RPS: 120})
	cfg := core.DefaultConfig()
	cfg.IdleReclaim = 0 // measure the detection path, not limit decay
	ctl := core.New(cfg, tb.App, tb.DB, tb.Col, tb.Meter, tb.Deploy,
		harness.NewExtractor(Seed), harness.SharedAgent(Seed))
	tb.Eng.RunFor(5 * sim.Second) // populate the ring and the window mirror
	return tickBed{tb: tb, ctl: ctl}
}

// CoreTick measures the per-tick control-loop cost on the incremental
// window: violation check, effective P99, reward bookkeeping. The extra
// window metric is the number of traces the window holds.
func CoreTick(b *testing.B) {
	bed := newTickBed(0)
	bed.ctl.TickNow() // reach steady state (first tick advances the window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.ctl.TickNow()
	}
	b.StopTimer()
	b.ReportMetric(float64(bed.ctl.Monitor().Len()), "window")
}

// StatsWindow measures one evict+insert+P99 cycle on a 1024-observation
// window — the steady-state cost a completing trace adds to the tick path.
func StatsWindow(b *testing.B) {
	w := stats.NewWindow(1024)
	r := sim.Stream(Seed, "perf-stats-window")
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = r.Float64() * 100
		w.Add(xs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		w.Remove(x)
		w.Add(x)
		w.Percentile(99)
	}
}

// TracedbSelect measures selecting a 2-second suffix window into a reused
// buffer — the violated-tick path — out of a store that has consumed 200 s
// of traces at 1,000 per second and keeps the controller's 3 s of them.
func TracedbSelect(b *testing.B) {
	const n = 200000
	db := tracedb.New(harness.DefaultTraceWindow, 1024)
	traces := make([]trace.Trace, n)
	for i := range traces {
		end := sim.Time(i) * sim.Millisecond
		traces[i] = trace.Trace{ID: trace.TraceID(i + 1), Start: end - 10*sim.Millisecond, End: end}
		db.Consume(&traces[i])
	}
	since := traces[n-1].End - 2*sim.Second
	var buf []*trace.Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = db.SelectAppend(buf[:0], tracedb.Query{Since: since, IncludeDrop: true})
	}
	b.StopTimer()
	b.ReportMetric(float64(len(buf)), "selected")
}

// TelemetryAdd measures one full sampling pass (every container and node)
// of the harness collector with all retention rings at capacity — the
// steady state every collector interval pays. In-place ring overwrites make
// this allocation-free.
func TelemetryAdd(b *testing.B) {
	bed := newTickBed(0)
	col := bed.tb.Col
	// Fill every ring past the harness's retention so each measured pass
	// overwrites in place.
	for i := 0; i <= col.Keep(); i++ {
		col.SampleNow()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.SampleNow()
	}
}

// TelemetrySample measures one sampling pass at the scale of the mesh-1k
// workload: 1,000 single-replica services, every series reached by container
// ID. The cluster is bare (no app, no traffic) and warm — every ring exists
// and is full — so a pass must not allocate at all.
func TelemetrySample(b *testing.B) {
	const services, keep = 1000, 8
	eng := sim.NewEngine(Seed)
	cl := cluster.New(eng, cluster.DefaultConfig())
	for i := 0; i < services/8; i++ {
		cl.AddNode(cluster.XeonProfile)
	}
	for i := 0; i < services; i++ {
		if _, err := cl.DeployService(fmt.Sprintf("svc-%04d", i), 1, cluster.V(2, 800, 3, 60, 150)); err != nil {
			panic(fmt.Sprintf("perf: deploy failed: %v", err))
		}
	}
	col := telemetry.NewCollector(eng, cl, sim.Second, keep)
	for i := 0; i <= keep; i++ {
		col.SampleNow()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.SampleNow()
	}
	b.StopTimer()
	b.ReportMetric(services, "containers")
}

// newTrainAgent builds the Table-4 agent with a filled replay buffer.
func newTrainAgent() *rl.Agent {
	cfg := rl.DefaultConfig()
	cfg.Seed = Seed
	cfg.ActorDelay = 0
	ag := rl.New(cfg)
	r := sim.Stream(Seed, "perf-nn")
	mkvec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		return v
	}
	for i := 0; i < 4*cfg.BatchSize; i++ {
		ag.Observe(rl.Transition{
			S: mkvec(cfg.StateDim), A: mkvec(cfg.ActionDim),
			R: r.Float64(), S2: mkvec(cfg.StateDim), Done: i%64 == 63,
		})
	}
	return ag
}

// RLTrainStepBatched measures one DDPG update on the matrix minibatch path:
// minibatch sample, batched critic regression, batched actor ascent, soft
// target updates (Table 4 network shapes, batch 64).
func RLTrainStepBatched(b *testing.B) {
	ag := newTrainAgent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ag.TrainStep(); !ok {
			// Impossible by construction (4×BatchSize observations above);
			// panic rather than b.Fatal — see newTickBed.
			panic("perf: TrainStep skipped: buffer underfilled")
		}
	}
}

// RLPretrain measures one rl.Agent.PretrainActor call shaped like the clone
// every experiments.Train starts with — 3,000 demonstrations of the guided
// rule through the Table 4 actor — at 4 epochs instead of 200, on
// min(GOMAXPROCS, 2) workers: `-cpu 1,2` separates the kernels from the
// ownership split, and 2 is what benchmark/'s rl-train pins. It allocates
// by design: the epoch's dataset-sized matrices live for the call, not the
// agent.
func RLPretrain(b *testing.B) {
	const rows, epochs = 3000, 4
	cfg := rl.DefaultConfig()
	cfg.Seed = Seed
	cfg.BufferCap = 1
	ag := rl.New(cfg)
	r := sim.Stream(Seed, "perf-rl-pretrain")
	states := make([][]float64, rows)
	actions := make([][]float64, rows)
	for i := range states {
		states[i] = make([]float64, cfg.StateDim)
		for j := range states[i] {
			states[i][j] = 2 * r.Float64()
		}
		actions[i] = agent.GuidedAction(states[i])
	}
	width := min(runtime.GOMAXPROCS(0), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ag.PretrainActor(states, actions, epochs, 3e-3, width); err != nil {
			panic(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(rows*epochs, "rows/op")
}

// NNForwardBatch measures one batched forward through the paper's actor
// shape (8→40→40→5) at batch 64 — the building block both TrainStep phases
// and PretrainActor lean on. Steady state is allocation-free: the batch
// scratch is owned by the net and only the caller's input matrix varies.
func NNForwardBatch(b *testing.B) {
	const batch = 64
	r := sim.Stream(Seed, "perf-nn-forward")
	net := nn.New(r, []int{8, 40, 40, 5}, []nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh})
	xb := make([]float64, batch*8)
	for i := range xb {
		xb[i] = 2*r.Float64() - 1
	}
	net.ForwardBatch(xb, batch) // size the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(xb, batch)
	}
	b.StopTimer()
	b.ReportMetric(batch, "rows/op")
}

// DetectFeatures measures a rescore of a quiescent window: with the window
// mirrored and folded, one op is Advance (no-op pops) plus a full
// Candidates rescore — a counting pass over the localizer's observation
// log, a scatter of the scored instances' durations, per-instance
// percentiles by selection, Pearson over the pairs rebuilt from the log, and
// SVM scoring. Per-span maintenance happens when a trace is folded, not
// here; DetectTick measures the whole tick. Steady state is
// allocation-free.
func DetectFeatures(b *testing.B) {
	bed := newTickBed(0)
	loc := detect.NewLocalizer(harness.NewExtractor(Seed), 256)
	bed.tb.DB.Observe(loc) // replays the retained traces
	since := bed.tb.Eng.Now() - core.Window
	loc.Advance(since)
	if len(loc.Candidates()) == 0 {
		panic("perf: detect-features testbed produced no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc.Advance(since)
		loc.Candidates()
	}
	b.StopTimer()
	b.ReportMetric(float64(loc.Len()), "window")
}

// DetectTick measures what localization costs the controller on a violated
// tick: one second of fresh traces stored, the traces that left the
// 2-second window evicted, and a Candidates call that folds the fresh ones
// (critical path, self-durations, one log entry per span) and rescores.
// The traces are a recorded 20 s of the tick bed's stream, replayed in a
// loop with their timestamps shifted one stream length per lap; a lap is
// run before timing, so the localizer's storage has reached its working
// size and a tick allocates nothing.
func DetectTick(b *testing.B) {
	const lap = 20 * sim.Second
	bed := newTickBed(lap)
	bed.tb.Eng.RunFor(lap)
	stream := bed.tb.DB.Select(tracedb.Query{Since: bed.tb.Eng.Now() - lap, IncludeDrop: true})
	starts, ends := make([]sim.Time, len(stream)), make([]sim.Time, len(stream))
	for i, t := range stream {
		starts[i], ends[i] = t.Start, t.End
	}
	loc := detect.NewLocalizer(harness.NewExtractor(Seed), 256)
	now, next, shift := ends[0], 0, sim.Time(0)
	tick := func() {
		now += core.Interval
		for {
			if next == len(stream) {
				next, shift = 0, shift+lap
			}
			if ends[next]+shift >= now {
				break
			}
			t := stream[next]
			t.Start, t.End = starts[next]+shift, ends[next]+shift
			loc.TraceStored(t)
			next++
		}
		loc.Advance(now - core.Window)
		loc.Candidates()
	}
	for range lap / core.Interval {
		tick()
	}
	if len(loc.Candidates()) == 0 {
		panic("perf: detect-tick stream produced no candidates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(loc.Len()), "window")
}

// RolloutRoundOverlap measures one double-buffered rollout campaign — two
// rounds of four synthetic episodes on two actor replicas with the learner
// replaying completed episodes concurrently. It
// exercises snapshot publication, replica sync, streaming replay, and the
// batched TrainStep together: the end-to-end training inner loop.
func RolloutRoundOverlap(b *testing.B) {
	cfg := rl.DefaultConfig()
	cfg.Seed = Seed
	learner := core.SharedAgent{A: rl.New(cfg)}
	runEp := func(ep, _ int, prov core.AgentProvider, sink core.TransitionSink) (float64, error) {
		r := sim.Stream(Seed, fmt.Sprintf("perf-rollout/ep%d", ep))
		state := make([]float64, cfg.StateDim)
		for i := range state {
			state[i] = r.Float64()
		}
		var total float64
		const steps = 24
		for step := 0; step < steps; step++ {
			ag := prov.AgentFor("svc")
			act := ag.ActExplore(state)
			var reward float64
			for _, a := range act {
				reward -= a * a
			}
			next := make([]float64, len(state))
			for i := range next {
				next[i] = 0.9*state[i] + 0.1*act[i%len(act)] + 0.02*r.Float64()
			}
			sink("svc", rl.Transition{S: state, A: act, R: reward, S2: next, Done: step == steps-1})
			total += reward
			state = next
		}
		return total, nil
	}
	campaign := func(i int) {
		if _, err := rollout.Run(rollout.Options{
			Episodes: 8, Workers: 2, SyncEvery: 4,
			Seed: Seed, Key: fmt.Sprintf("perf-overlap/%d", i),
			Learner: learner, RunEpisode: runEp,
		}); err != nil {
			panic(fmt.Sprintf("perf: rollout campaign failed: %v", err))
		}
	}
	campaign(-1) // the learner's first campaign sizes its replay buffer and batch scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		campaign(i)
	}
	b.StopTimer()
	b.ReportMetric(8, "episodes/op")
}

// TopologyGenerate measures procedural generation (plus the hardened
// Validate it runs internally) of a 1,000-service spec — the per-cell
// setup cost of every web-scale sweep, and the large-graph target ROADMAP
// item 5's profiling flywheel asks for.
func TopologyGenerate(b *testing.B) {
	p := topology.Params{Services: 1000, Endpoints: 8, MaxFanout: 3, Depth: 6}
	var spec *topology.Spec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		spec, err = topology.Generate(p, Seed)
		if err != nil {
			panic(fmt.Sprintf("perf: generate failed: %v", err))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(spec.NumServices()), "services")
}

// WorkloadArrivals measures the thinned open-loop arrival path end to end:
// candidate proposals against a fast-varying composite bound (diurnal base
// with stochastic spikes), accept/reject thinning, and the accepted
// arrivals' submission into a minimal 2-service generated app. Each
// iteration advances the simulation 10ms (~26 proposals at the composite's
// 2,600 rps bound, ~11 accepted). The bed first runs past the trace store's
// window, so each accepted request reuses a trace the store evicted; with
// proposals pooled generator events, a warm op allocates nothing.
func WorkloadArrivals(b *testing.B) {
	spec, err := topology.Generate(topology.Params{Services: 2, Endpoints: 1, MaxFanout: 1, Depth: 2}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	tb, err := harness.New(harness.Options{Seed: Seed, Spec: spec})
	if err != nil {
		panic(fmt.Sprintf("perf: harness failed: %v", err))
	}
	spikes, err := workload.NewSpikes(
		workload.Diurnal{Base: 800, Amplitude: 400, Period: sim.Second},
		2, 50*sim.Millisecond, 10*sim.Millisecond, sim.Hour, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: spikes failed: %v", err))
	}
	gen := tb.AttachWorkload(workload.Sum{workload.Constant{RPS: 200}, spikes})
	tb.Eng.RunFor(harness.DefaultTraceWindow + sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Eng.RunFor(10 * sim.Millisecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(gen.Submitted), "arrivals")
}

// TopologyGenerate10k measures generation + validation of the sharded
// sweep's top cell: a 10,000-service spec. Setup at this size is itself a
// scaling surface — a superlinear generator would dominate the cell's
// wall-clock before the first event fires.
func TopologyGenerate10k(b *testing.B) {
	p := topology.Params{Services: 10000, Endpoints: 12, MaxFanout: 2, Depth: 8}
	var spec *topology.Spec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		spec, err = topology.Generate(p, Seed)
		if err != nil {
			panic(fmt.Sprintf("perf: generate failed: %v", err))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(spec.NumServices()), "services")
}

// ShardStep measures the sharded engine's hot loop at steady state: one op
// advances an 8-shard system by one lookahead window, carrying eight mail
// rings (every shard forwards one mail per window) plus one local
// self-rescheduling event per shard. It covers the senders' buffers, each
// destination's fill and drain of its own mail heap, the barrier's swap and
// counters, and the per-shard event loop — and
// must run at 0 allocs/op: event records come from the engine freelist and
// every mail buffer is reused, so a regression here means a per-event
// allocation crept into the window path. Workers are pinned to 1 (the
// inline path): goroutine handoff is measured by wall-clock elsewhere, and
// allocation accounting must not depend on scheduler timing.
func ShardStep(b *testing.B) {
	const nShards = 8
	const lookahead = 100 * sim.Microsecond
	se := sim.NewShardedEngine(Seed, nShards, lookahead)
	se.SetWorkers(1)
	// step[r][j] runs on shard j and forwards ring r to shard j+1. Keys are
	// the ring index: at any timestamp the eight in-flight mails carry
	// distinct rings, satisfying the key-uniqueness contract.
	step := make([][]sim.Func, nShards)
	for r := 0; r < nShards; r++ {
		step[r] = make([]sim.Func, nShards)
	}
	for r := 0; r < nShards; r++ {
		for j := 0; j < nShards; j++ {
			r, j := r, j
			next := (j + 1) % nShards
			step[r][j] = func() { se.Send(j, next, lookahead, uint64(r), step[r][next]) }
		}
	}
	local := make([]func(), nShards)
	for j := 0; j < nShards; j++ {
		j := j
		local[j] = func() { se.Shard(j).Schedule(37*sim.Microsecond, local[j]) }
	}
	for r := 0; r < nShards; r++ {
		se.Shard(r).Schedule(1, step[r][r])
		se.Shard(r).Schedule(1, local[r])
	}
	se.RunFor(50 * sim.Millisecond) // steady state: heaps, freelists, buffers all grown
	before := se.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se.RunFor(lookahead)
	}
	b.StopTimer()
	b.ReportMetric(float64(se.Steps()-before)/float64(b.N), "events/op")
}

// ShardedRequest measures the request path over the sharded engine: one op
// submits a request of a 60-service generated spec's largest endpoint on a
// warm 2-shard testbed and runs the windows until it has drained — every
// call mailed to its callee's shard, routed and served there, result and
// drained mailed back. Workers are pinned to 1 as in ShardStep. An untraced
// request allocates nothing: its context, frames (result frames included),
// mail buffers, engine events and container records are all recycled.
func ShardedRequest(b *testing.B) {
	spec, err := topology.Generate(topology.Params{Services: 60, Endpoints: 4, MaxFanout: 3, Depth: 4}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	tb, err := harness.NewSharded(harness.ShardedOptions{Seed: Seed, Spec: spec, Shards: 2})
	if err != nil {
		panic(fmt.Sprintf("perf: harness failed: %v", err))
	}
	tb.Eng.SetWorkers(1)
	endpoint := spec.Endpoints[1].Name // the spec's largest call tree: 37 calls
	request := func() {
		if err := tb.App.Submit(endpoint, nil); err != nil {
			panic(fmt.Sprintf("perf: submit failed: %v", err))
		}
		tb.Eng.RunFor(sim.Second)
	}
	for i := 0; i < 64; i++ { // fill the freelists, grow the mail buffers
		request()
	}
	if tb.App.Completed != 64 || tb.Eng.Pending() != 0 {
		panic(fmt.Sprintf("perf: %d of 64 warm-up requests completed, %d events pending", tb.App.Completed, tb.Eng.Pending()))
	}
	before := tb.Eng.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	b.ReportMetric(float64(tb.Eng.Steps()-before)/float64(b.N), "events/op")
}

// ClusterColdSubmit measures what a container's first work item costs: one
// op is the first Submit on each of 1,000 never-touched containers under
// PerInstanceNoise (the sharded deployment's configuration), run to
// completion. The engine is warm and each op's cluster is built off the
// clock, so allocs/op is 1,000 × (queue, in-flight record, freelist) and
// nothing else — the noise stream is eight bytes of the container, not a
// generator built at first draw (math/rand's was a 4.9 KB table and two more
// allocations each).
func ClusterColdSubmit(b *testing.B) {
	const containers = 1000
	names := make([]string, containers)
	for i := range names {
		names[i] = fmt.Sprintf("svc-%04d", i)
	}
	eng := sim.NewEngine(Seed)
	cfg := cluster.DefaultConfig()
	cfg.PerInstanceNoise, cfg.NoiseSeed = true, Seed
	fresh := func() []*cluster.Container {
		cl := cluster.New(eng, cfg)
		for i := 0; i < containers/8; i++ {
			cl.AddNode(cluster.XeonProfile)
		}
		cs := make([]*cluster.Container, 0, containers)
		for _, name := range names {
			rs, err := cl.DeployService(name, 1, cluster.V(2, 800, 3, 60, 150))
			if err != nil {
				panic(fmt.Sprintf("perf: deploy failed: %v", err))
			}
			cs = append(cs, rs.Containers()...)
		}
		return cs
	}
	work := cluster.Work{Base: sim.Millisecond, Demand: cluster.V(1, 100, 0, 0, 0)}
	submit := func(cs []*cluster.Container) {
		for _, c := range cs {
			c.Submit(work)
		}
		eng.RunFor(sim.Second)
	}
	submit(fresh()) // warm the engine: 1,000 event records, the heap's capacity
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cs := fresh()
		b.StartTimer()
		submit(cs)
	}
	b.StopTimer()
	b.ReportMetric(containers, "containers")
}

// ScenarioStep measures one fault-scenario player tick with every mode
// family active at once: per-site pressure recomputation (leak ramp,
// plateau saturation, metastable feedback) and the injected-load delta
// application. The campaign loop pays this every player tick for each
// armed scenario, so it must run at 0 allocs/op — sites are preallocated
// at NewPlayer and advance only mutates them.
func ScenarioStep(b *testing.B) {
	spec, err := topology.Generate(topology.Params{Services: 12, Endpoints: 2, MaxFanout: 3, Depth: 3}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	tb, err := harness.New(harness.Options{Seed: Seed, Spec: spec})
	if err != nil {
		panic(fmt.Sprintf("perf: harness failed: %v", err))
	}
	const d = 30 * sim.Second
	sc := scenario.Overlay(
		scenario.Mode(scenario.MemLeak, 0.6, d),
		scenario.Mode(scenario.Plateau, 0.6, d),
		scenario.Mode(scenario.Metastable, 0.7, d),
		scenario.Mode(scenario.Cascade, 0.7, d).WithProb(0.5),
	)
	p, err := scenario.NewPlayer(scenario.Env{Eng: tb.Eng, Cluster: tb.Cluster, Spec: spec}, sc, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: player failed: %v", err))
	}
	p.Arm()
	tb.Eng.RunFor(d / 3) // mid-scenario: every atom active, sites populated
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.StepNow()
	}
}

// AppRequest measures the traced request path end to end: one op submits a
// request of a 63-call generated endpoint and runs the engine until its
// trace is stored — routing, both hops, container queueing and compute, the
// child walk, span emission for every call, and sealing the trace. The
// testbed is bare (engine, cluster, trace store, app; no telemetry or
// generator tickers) and warm, so allocs/op is exactly what a request
// costs: nothing, whatever the endpoint's size. The Trace and its packed
// storage are the one the store evicted last, and the request context, the
// span emission buffer, call frames, engine events and container in-flight
// records all come from freelists; the store's latency column grows by one
// block per 4,096 requests. spans/op is the endpoint's call count.
func AppRequest(b *testing.B) {
	a, _, request := appRequestBed()
	spans0 := a.Coord.SpansSeen
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	b.ReportMetric(float64(a.Coord.SpansSeen-spans0)/float64(b.N), "spans/op")
}

// TraceSeal measures what packing costs a trace over its life: one op seals
// the spans of a stored app-request trace (the 63-call endpoint) the way
// Finish does, then decodes and indexes them the way every structured reader
// does (ChildIndex.Reset). Resealing reuses the scratch and the trace's packed
// storage, so a warm op allocates nothing; ns/span is the round trip per span.
func TraceSeal(b *testing.B) {
	_, db, _ := appRequestBed()
	spans := db.Select(tracedb.Query{Limit: 1})[0].AppendSpans(nil)
	var tr trace.Trace
	var x trace.ChildIndex
	scratch := tr.Seal(spans, nil)
	x.Reset(&tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = tr.Seal(spans, scratch)
		x.Reset(&tr)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(spans)), "ns/span")
}

// appRequestBed deploys AppRequest's bare, warm testbed and returns its app,
// its trace store and one request: submit the generated spec's largest
// endpoint (63 calls) and run the engine until its trace is stored.
func appRequestBed() (*app.App, *tracedb.Store, func()) {
	spec, err := topology.Generate(topology.Params{Services: 100, Endpoints: 4, MaxFanout: 3, Depth: 5}, Seed)
	if err != nil {
		panic(fmt.Sprintf("perf: generate failed: %v", err))
	}
	eng := sim.NewEngine(Seed)
	cl := cluster.New(eng, cluster.DefaultConfig())
	for i := 0; i < 1+len(spec.Services)/8; i++ {
		cl.AddNode(cluster.XeonProfile)
	}
	db := tracedb.New(0, 64) // the newest 64 traces: every request recycles one
	a, err := app.Deploy(eng, cl, spec, trace.NewCoordinator(eng, db, cl))
	if err != nil {
		panic(fmt.Sprintf("perf: deploy failed: %v", err))
	}
	endpoint := spec.Endpoints[0].Name // the spec's largest call tree: 63 calls
	request := func() {
		if err := a.Submit(endpoint, nil); err != nil {
			panic(fmt.Sprintf("perf: submit failed: %v", err))
		}
		eng.Drain(1 << 20)
	}
	for i := 0; i < 2*64; i++ { // fill the freelists and start recycling traces
		request()
	}
	if a.Dropped != 0 {
		panic(fmt.Sprintf("perf: %d warm-up requests dropped", a.Dropped))
	}
	return a, db, request
}

// EpisodeReset measures one training episode on a warm rollout-slot testbed,
// the way experiments.Train runs every episode after a slot's first: Reset
// (whose calibration runs 6 requests per endpoint on the engine), then 1
// sim-s of the Train-Ticket episode — 120 rps, the training campaign, a
// training FIRM controller acting through a policy replica and sending its
// transitions to a sink. The testbed has run two such episodes, one on New
// and one on Reset, before the clock starts. What an op allocates is what a reset world still builds —
// the cluster, the deployment module, the controller and its ticker — plus
// whatever the episode outgrows of the last one's buffers.
func EpisodeReset(b *testing.B) {
	ext := harness.NewExtractor(Seed)
	cfg := rl.DefaultConfig()
	cfg.Seed = Seed
	rep := core.SharedAgent{A: rl.New(cfg)}.NewReplica()
	tb, err := harness.New(harness.Options{Seed: Seed, Spec: topology.TrainTicket(), SLOMargin: 1.6, CalibrationN: 6})
	if err != nil {
		panic(fmt.Sprintf("perf: testbed setup failed: %v", err))
	}
	episode := func() {
		rep.BeginEpisode(Seed)
		tb.AttachWorkload(workload.Constant{RPS: 120})
		ccfg := core.DefaultConfig()
		ccfg.Training, ccfg.IdleReclaim = true, 0
		ccfg.Sink = func(string, rl.Transition) {}
		ctl := tb.AttachFIRM(ccfg, rep, ext)
		camp := injector.DefaultCampaign(tb.Injector, tb.Containers())
		camp.MeanInterarrival, camp.MinDuration, camp.MaxDuration, camp.MinIntensity = 3*sim.Second, 8*sim.Second, 16*sim.Second, 0.6
		camp.Start()
		tb.Eng.RunFor(sim.Second)
		camp.Stop()
		ctl.ResetEpisode()
	}
	episode()
	tb.Reset(Seed) // the first Reset takes over the first episode's buffers
	episode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Reset(Seed)
		episode()
	}
	b.StopTimer()
	b.ReportMetric(float64(tb.Eng.Steps()), "events/op")
}
