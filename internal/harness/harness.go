// Package harness assembles complete FIRM testbeds: engine, cluster (the
// paper's 15-node Intel+IBM deployment by default), a benchmark application,
// tracing pipeline, telemetry, workload generator, anomaly injector, and —
// optionally — a resource-management policy (FIRM, the Kubernetes-HPA
// baseline, or the AIMD baseline). Experiments, examples, and integration
// tests all build on it.
//
// A testbed's life is New, then a run; a caller that runs many episodes of
// one world — RL training's rollout workers — calls Reset(seed) between
// them instead of New: the testbed is then the one New builds with that
// seed, but the trace store, the engine's heap, the app's pools and the
// controller's detector state keep the storage the last episode grew.
package harness

import (
	"fmt"

	"firm/internal/app"
	"firm/internal/autoscale"
	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/deploy"
	"firm/internal/detect"
	"firm/internal/injector"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/svm"
	"firm/internal/telemetry"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// Options configures a testbed.
type Options struct {
	Seed int64
	Spec *topology.Spec
	// Nodes lists hardware profiles; nil selects the paper's 15-node
	// cluster: nine Intel Xeon class and six IBM Power class machines.
	Nodes []cluster.HardwareProfile
	// SLOMargin calibrates SLO = uncontended P99 × margin when positive.
	SLOMargin float64
	// CalibrationN requests per endpoint during SLO calibration.
	CalibrationN int
	// TraceWindow is how far back from the newest completed request the
	// trace store keeps full traces (latencies it keeps for the whole run).
	// Zero selects DefaultTraceWindow. A reader that selects traces further
	// back than that declares its look-back here; the store panics on a
	// query that reaches past what it kept.
	TraceWindow sim.Time
}

// DefaultTraceWindow is what the FIRM controller reads: its monitor and
// localizer look back core.Window, and advance once every core.Interval.
const DefaultTraceWindow = core.Window + core.Interval

// Fixed testbed parameters: the trace store's floor, the telemetry
// collector's sampling interval and retention, and the workload meter's
// window.
const (
	// traceFloor is how many of the newest traces the store keeps however
	// long ago they ended, so a Limit <= traceFloor query is always exact.
	traceFloor        = 1024
	telemetryInterval = 250 * sim.Millisecond
	// telemetryKeep is one sample per container and node: the testbed's only
	// readers — the controller's flush and the RL state builder — read
	// Collector.Latest. Tests that need history build their own collector.
	telemetryKeep = 1
	meterWindow   = sim.Second
)

// PaperNodes returns the §4.1 testbed: 15 two-socket servers, nine x86 and
// six ppc64.
func PaperNodes() []cluster.HardwareProfile {
	var out []cluster.HardwareProfile
	for i := 0; i < 9; i++ {
		out = append(out, cluster.XeonProfile)
	}
	for i := 0; i < 6; i++ {
		out = append(out, cluster.PowerProfile)
	}
	return out
}

// Bench is an assembled testbed.
type Bench struct {
	Opts     Options
	Eng      *sim.Engine
	Cluster  *cluster.Cluster
	DB       *tracedb.Store
	Coord    *trace.Coordinator
	App      *app.App
	Col      *telemetry.Collector
	Meter    *telemetry.Meter
	Deploy   *deploy.Module
	Injector *injector.Injector
	Gen      *workload.Generator

	// ctl is the FIRM controller attached since the last New or Reset. Reset
	// parks it and Gen as spares, whose storage the next AttachFIRM and
	// AttachWorkload take over.
	ctl      *core.Controller
	spareCtl *core.Controller
	spareGen *workload.Generator
}

// New builds a testbed. The workload generator is created by AttachWorkload.
func New(opts Options) (*Bench, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("harness: Spec is required")
	}
	if opts.Nodes == nil {
		opts.Nodes = PaperNodes()
	}
	if opts.TraceWindow < 0 {
		return nil, fmt.Errorf("harness: negative TraceWindow %v", opts.TraceWindow)
	}
	if opts.TraceWindow == 0 {
		opts.TraceWindow = DefaultTraceWindow
	}
	eng := sim.NewEngine(opts.Seed)
	cl := cluster.New(eng, cluster.DefaultConfig())
	for _, prof := range opts.Nodes {
		cl.AddNode(prof)
	}
	db := tracedb.New(opts.TraceWindow, traceFloor)
	coord := trace.NewCoordinator(eng, db, cl)
	a, err := app.Deploy(eng, cl, opts.Spec, coord)
	if err != nil {
		return nil, err
	}
	var types []string
	for _, ep := range opts.Spec.Endpoints {
		types = append(types, ep.Name)
	}
	b := &Bench{
		Opts:     opts,
		Eng:      eng,
		Cluster:  cl,
		DB:       db,
		Coord:    coord,
		App:      a,
		Col:      telemetry.NewCollector(eng, cl, telemetryInterval, telemetryKeep),
		Meter:    telemetry.NewMeter(eng, meterWindow, types),
		Deploy:   deploy.New(eng, cl),
		Injector: injector.New(eng, opts.Seed),
	}
	b.start()
	return b, nil
}

// start starts telemetry and calibrates the SLO: the last step of New and of
// Reset, on a testbed whose clock reads zero.
func (b *Bench) start() {
	b.Col.Start()
	if b.Opts.SLOMargin > 0 {
		n := b.Opts.CalibrationN
		if n <= 0 {
			n = 20
		}
		b.App.Calibrate(n, b.Opts.SLOMargin)
	}
}

// Reset makes the testbed the one New builds from b.Opts with Opts.Seed =
// seed: same calibrated SLO, clock, trace, span and container IDs, and random
// streams, with no workload or controller attached. Everything the last run
// left — requests in flight, injections, scaled-out replicas, pending
// controller actions — is abandoned. What the run grew keeps its storage:
// the engine's heap, the cluster's containers and their queues, the trace
// store (its retained traces go back to its free list), the coordinator's
// and the app's pools, the telemetry series, and the last generator and FIRM
// controller, which the next AttachWorkload and AttachFIRM take over. Only
// the deployment module is rebuilt. Nothing built on the testbed before the
// Reset may be used after it: a controller, a generator, a container or
// replica set, an injection's stop function.
func (b *Bench) Reset(seed int64) {
	b.Opts.Seed = seed
	b.Eng.Reset(seed)
	b.Cluster.Reset()
	b.DB.Reset()
	b.Coord.Reset()
	if err := b.App.Reset(); err != nil {
		panic(err) // New deployed this spec on these nodes
	}
	b.Col.Reset()
	b.Meter.Reset()
	b.Deploy = deploy.New(b.Eng, b.Cluster)
	b.Injector.Reset(seed)
	if b.Gen != nil {
		b.spareGen, b.Gen = b.Gen, nil
	}
	if b.ctl != nil {
		b.spareCtl, b.ctl = b.ctl, nil
	}
	b.start()
}

// AttachWorkload creates and starts the open-loop generator, and wires the
// injector's workload-variation anomaly to it. The injector validates
// intensities to [0,1], so a rejected spike factor is a bug and panics.
func (b *Bench) AttachWorkload(p workload.Pattern) *workload.Generator {
	if g := b.spareGen; g != nil {
		b.spareGen = nil
		g.Reset(p, b.Opts.Seed)
		b.Gen = g
	} else {
		b.Gen = workload.NewGenerator(b.App, p, b.Meter, b.Opts.Seed)
	}
	b.Injector.SpikeHook = func(intensity float64, d sim.Time) {
		if err := b.Gen.Spike(intensity*3, d); err != nil { // intensity 1 → 4× rate
			panic(err)
		}
	}
	b.Gen.Start()
	return b.Gen
}

// NewExtractor builds a pre-trained critical-component extractor for the
// given seed. The controller only reads it (Candidates/Decision), so one
// extractor may be shared across many benches — including concurrently by
// rollout workers — as long as nothing calls its online Train.
func NewExtractor(seed int64) *detect.Extractor {
	ext := detect.New(detect.DefaultConfig(), svm.New(svm.DefaultConfig()))
	if err := ext.Pretrain(seed, 4000); err != nil {
		panic(err) // deterministic synthetic data cannot fail
	}
	return ext
}

// NewExtractor builds a pre-trained critical-component extractor seeded by
// the bench seed.
func (b *Bench) NewExtractor() *detect.Extractor {
	return NewExtractor(b.Opts.Seed)
}

// AttachFIRM wires and starts a FIRM controller with the given agents. On a
// Reset testbed the first one takes over the last run's controller's detector
// storage.
func (b *Bench) AttachFIRM(cfg core.Config, prov core.AgentProvider, ext *detect.Extractor) *core.Controller {
	if ext == nil {
		ext = b.NewExtractor()
	}
	ctl := core.NewReusing(b.spareCtl, cfg, b.App, b.DB, b.Col, b.Meter, b.Deploy, ext, prov)
	b.spareCtl, b.ctl = nil, ctl
	ctl.Start()
	return ctl
}

// The baselines' fixed parameters: the Kubernetes autoscaler's CPU
// utilization target (the K8s default 0.8 of the paper's §4.1 setup) and
// sync period, and the AIMD controller's control interval.
const (
	hpaTarget  = 0.8
	hpaSync    = 5 * sim.Second
	aimdPeriod = 2 * sim.Second
)

// AttachHPA wires and starts the Kubernetes-autoscaler baseline.
func (b *Bench) AttachHPA() *autoscale.HPA {
	h := autoscale.NewHPA(b.Cluster, b.Deploy, hpaTarget, hpaSync)
	h.Start()
	return h
}

// AttachAIMD wires and starts the AIMD baseline.
func (b *Bench) AttachAIMD() *autoscale.AIMD {
	a := autoscale.NewAIMD(b.Cluster, b.Deploy, aimdPeriod)
	a.Start()
	return a
}

// Containers returns all application containers (injection targets).
func (b *Bench) Containers() []*cluster.Container {
	var out []*cluster.Container
	for _, rs := range b.Cluster.ReplicaSets() {
		out = append(out, rs.Containers()...)
	}
	return out
}

// SharedAgent builds a one-for-all provider with Table 4 hyperparameters.
func SharedAgent(seed int64) core.AgentProvider {
	cfg := rl.DefaultConfig()
	cfg.Seed = seed
	return core.SharedAgent{A: rl.New(cfg)}
}
