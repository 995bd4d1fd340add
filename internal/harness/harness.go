// Package harness assembles complete FIRM testbeds: engine, cluster (the
// paper's 15-node Intel+IBM deployment by default), a benchmark application,
// tracing pipeline, telemetry, workload generator, anomaly injector, and —
// optionally — a resource-management policy (FIRM, the Kubernetes-HPA
// baseline, or the AIMD baseline). Experiments, examples, and integration
// tests all build on it.
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
}

// Fixed testbed parameters: the trace store's capacity, the telemetry
// collector's sampling interval and retention, and the workload meter's
// window.
const (
	traceCap          = 200000
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
}

// New builds a testbed. The workload generator is created by AttachWorkload.
func New(opts Options) (*Bench, error) {
	if opts.Spec == nil {
		return nil, fmt.Errorf("harness: Spec is required")
	}
	if opts.Nodes == nil {
		opts.Nodes = PaperNodes()
	}
	eng := sim.NewEngine(opts.Seed)
	cl := cluster.New(eng, cluster.DefaultConfig())
	for _, prof := range opts.Nodes {
		cl.AddNode(prof)
	}
	db := tracedb.New(traceCap)
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
	b.Col.Start()
	if opts.SLOMargin > 0 {
		n := opts.CalibrationN
		if n <= 0 {
			n = 20
		}
		a.Calibrate(n, opts.SLOMargin)
	}
	return b, nil
}

// AttachWorkload creates and starts the open-loop generator, and wires the
// injector's workload-variation anomaly to it. The injector validates
// intensities to [0,1], so a rejected spike factor is a bug and panics.
func (b *Bench) AttachWorkload(p workload.Pattern) *workload.Generator {
	b.Gen = workload.NewGenerator(b.App, p, b.Meter, b.Opts.Seed)
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

// AttachFIRM wires and starts a FIRM controller with the given agents.
func (b *Bench) AttachFIRM(cfg core.Config, prov core.AgentProvider, ext *detect.Extractor) *core.Controller {
	if ext == nil {
		ext = b.NewExtractor()
	}
	ctl := core.New(cfg, b.App, b.DB, b.Col, b.Meter, b.Deploy, ext, prov)
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

// PerServiceAgents builds a one-for-each provider; base non-nil enables
// transfer learning.
func PerServiceAgents(seed int64, base *rl.Agent) core.AgentProvider {
	cfg := rl.DefaultConfig()
	cfg.Seed = seed
	return &core.PerServiceAgents{Cfg: cfg, Base: base}
}
