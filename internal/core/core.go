// Package core implements the FIRM controller — the paper's primary
// contribution (Fig. 6): a control loop that (1) collects execution history
// graphs from the Tracing Coordinator, (2) detects SLO violations and
// localizes culprit microservice instances with the critical-path and
// critical-component extractors (SVM), (3) asks the RL Resource Estimator
// (DDPG) for reprovisioning actions, and (4) actuates them through the
// Deployment Module, which validates against node capacity and falls back
// to scale-out.
package core

import (
	"fmt"
	"sort"
	"sync"

	"firm/internal/agent"
	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/deploy"
	"firm/internal/detect"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/telemetry"
	"firm/internal/tracedb"
)

// AgentProvider supplies the RL agent to use for a given microservice,
// covering the paper's three variants: one-for-all (a single shared agent),
// one-for-each (tailored per service), and transferred (per service,
// warm-started from a general agent).
type AgentProvider interface {
	AgentFor(service string) *rl.Agent
	// Agents returns all distinct agents (for snapshotting/training stats).
	Agents() []*rl.Agent
}

// TransitionSink receives finalized transitions in emission order. When
// Config.Sink is set, the controller diverts transitions here instead of
// writing the replay buffer and stepping gradients: rollout actor workers
// (internal/rollout) collect experience this way for a central learner that
// replays it in a fixed episode order.
type TransitionSink func(service string, t rl.Transition)

// ReplicableProvider is an AgentProvider whose policies can be mirrored
// into per-worker acting replicas — the actor half of internal/rollout's
// actor-learner split. Snapshot keys are stable identifiers (the shared
// agent uses one fixed key; per-service providers key by service name).
type ReplicableProvider interface {
	AgentProvider
	// SnapshotPolicies serializes every distinct agent under its stable key.
	SnapshotPolicies() (map[string]rl.Snapshot, error)
	// NewReplica creates a provider mirroring this provider's service→agent
	// mapping with private acting copies (small replay buffers, private
	// RNGs). The replica's weights are undefined until SyncPolicies.
	NewReplica() ReplicaProvider
}

// ReplicaProvider is a worker-local mirror of a learner's AgentProvider.
// Its agents only act (the controller's Sink carries their experience to
// the learner); they are never trained in place.
type ReplicaProvider interface {
	AgentProvider
	// SyncPolicies loads learner snapshots (keyed as SnapshotPolicies keys
	// them) into the replica's agents. Agents the replica has not
	// materialized yet pick their snapshot up lazily on first AgentFor.
	SyncPolicies(map[string]rl.Snapshot) error
	// BeginEpisode re-derives every replica agent's exploration stream from
	// the episode seed — including agents materialized later in the episode
	// — so an episode's randomness is independent of worker identity and of
	// whatever the replica ran before.
	BeginEpisode(episodeSeed int64)
}

// sharedPolicyKey is the snapshot key used by SharedAgent providers.
const sharedPolicyKey = "shared"

// SharedAgent is the one-for-all provider.
type SharedAgent struct{ A *rl.Agent }

// AgentFor implements AgentProvider.
func (s SharedAgent) AgentFor(string) *rl.Agent { return s.A }

// Agents implements AgentProvider.
func (s SharedAgent) Agents() []*rl.Agent { return []*rl.Agent{s.A} }

// SnapshotPolicies implements ReplicableProvider.
func (s SharedAgent) SnapshotPolicies() (map[string]rl.Snapshot, error) {
	snap, err := s.A.Save()
	if err != nil {
		return nil, err
	}
	return map[string]rl.Snapshot{sharedPolicyKey: snap}, nil
}

// NewReplica implements ReplicableProvider.
func (s SharedAgent) NewReplica() ReplicaProvider {
	cfg := s.A.Config()
	cfg.BufferCap = 1 // replicas act; experience flows to the learner's buffer
	return &sharedReplica{a: rl.New(cfg)}
}

// sharedReplica is a worker-local mirror of a SharedAgent.
type sharedReplica struct{ a *rl.Agent }

func (s *sharedReplica) AgentFor(string) *rl.Agent { return s.a }
func (s *sharedReplica) Agents() []*rl.Agent       { return []*rl.Agent{s.a} }

func (s *sharedReplica) SyncPolicies(m map[string]rl.Snapshot) error {
	snap, ok := m[sharedPolicyKey]
	if !ok {
		return fmt.Errorf("core: snapshot set lacks %q policy", sharedPolicyKey)
	}
	return s.a.Load(snap)
}

func (s *sharedReplica) BeginEpisode(episodeSeed int64) {
	s.a.Reseed(sim.DeriveSeed(episodeSeed, sharedPolicyKey))
}

// PerServiceAgents is the one-for-each provider; when Base is non-nil each
// new agent warm-starts from it (transfer learning, §3.4). Init, when set,
// runs once on each freshly created agent (e.g. behaviour-cloning
// pretraining) before any transfer.
type PerServiceAgents struct {
	Cfg  rl.Config
	Base *rl.Agent
	Init func(*rl.Agent)
	m    map[string]*rl.Agent

	// freshMu guards the fresh map — not the weights in it: rollout workers
	// race the learner for the first touch of a service. Everything else in
	// the struct stays single-goroutine (the learner side of a rollout, or a
	// lone controller).
	freshMu sync.Mutex
	fresh   map[string]*freshEntry
}

// freshEntry memoizes one service's post-Init weights. once makes the
// first toucher compute them while later touchers of the same service wait
// on it alone — never on another service's Init.
type freshEntry struct {
	once sync.Once
	snap rl.Snapshot
}

// freshPolicy returns the deterministic post-Init weights for service —
// weight init from the service-derived seed, then Init (e.g. behaviour
// cloning) — computing them exactly once per service. Init can be orders
// of magnitude more expensive than a weight copy, so the learner and every
// rollout replica share this memo instead of re-deriving the same weights;
// the mutex covers only the map lookup, so Init (caller-supplied code) runs
// outside it and different services initialize concurrently.
// The Save/Load round-trip is exact here: Init leaves targets equal to the
// online nets (New clones them; PretrainActor re-syncs the actor target),
// which is precisely what Load reconstructs. Base transfer is NOT memoized
// — TransferFrom is a cheap weight copy, and going through a Snapshot
// would silently drop Base's target networks.
func (p *PerServiceAgents) freshPolicy(service string, cfg rl.Config) rl.Snapshot {
	p.freshMu.Lock()
	e := p.fresh[service]
	if e == nil {
		if p.fresh == nil {
			p.fresh = make(map[string]*freshEntry)
		}
		e = &freshEntry{}
		p.fresh[service] = e
	}
	p.freshMu.Unlock()
	e.once.Do(func() {
		cfg.BufferCap = 1 // scratch agent: only its weights survive
		a := rl.New(cfg)
		p.Init(a)
		snap, err := a.Save()
		if err != nil {
			panic(err) // in-memory marshal of a well-formed net cannot fail
		}
		e.snap = snap
	})
	return e.snap
}

// warmStart applies the provider's deterministic fresh-construction rule to
// a newly allocated agent: transfer from Base, else load the memoized Init
// product, else keep the seed-derived init weights. The learner and every
// worker replica share this one implementation — the rollout engine's
// byte-equality guarantee depends on fresh construction being bit-identical
// on both sides, so the rule must never be duplicated.
func (p *PerServiceAgents) warmStart(a *rl.Agent, service string, cfg rl.Config) {
	switch {
	case p.Base != nil:
		// Direct transfer preserves Base's (soft-updated) target networks,
		// which a Snapshot round-trip would replace with Base's online
		// nets. Init before a transfer would be overwritten, so skip it.
		// Base is only ever read here, so concurrent replicas are safe.
		if err := a.TransferFrom(p.Base); err != nil {
			panic(err) // dims are fixed by construction
		}
	case p.Init != nil:
		if err := a.Load(p.freshPolicy(service, cfg)); err != nil {
			panic(err) // snapshot shape is fixed by construction
		}
	}
}

// AgentFor implements AgentProvider, creating agents lazily.
func (p *PerServiceAgents) AgentFor(service string) *rl.Agent {
	if p.m == nil {
		p.m = make(map[string]*rl.Agent)
	}
	if a, ok := p.m[service]; ok {
		return a
	}
	cfg := p.Cfg
	// Derive a per-service seed so tailored agents differ deterministically.
	cfg.Seed = sim.DeriveSeed(cfg.Seed, service)
	a := rl.New(cfg)
	p.warmStart(a, service, cfg)
	p.m[service] = a
	return a
}

// Agents implements AgentProvider (deterministic order).
func (p *PerServiceAgents) Agents() []*rl.Agent {
	return agentsSorted(p.m)
}

func agentsSorted(m map[string]*rl.Agent) []*rl.Agent {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*rl.Agent, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// SnapshotPolicies implements ReplicableProvider (keyed by service).
func (p *PerServiceAgents) SnapshotPolicies() (map[string]rl.Snapshot, error) {
	out := make(map[string]rl.Snapshot, len(p.m))
	for svc, a := range p.m {
		snap, err := a.Save()
		if err != nil {
			return nil, err
		}
		out[svc] = snap
	}
	return out, nil
}

// NewReplica implements ReplicableProvider.
func (p *PerServiceAgents) NewReplica() ReplicaProvider {
	return &perServiceReplica{src: p}
}

// perServiceReplica mirrors a PerServiceAgents provider inside a rollout
// worker. Services already snapshotted by the learner load those weights;
// services the learner has not materialized yet are constructed through the
// learner's exact creation path (per-service seed, Init, transfer), which
// is deterministic — so a replica's weights never depend on which worker it
// is or which episodes it happened to run.
type perServiceReplica struct {
	src    *PerServiceAgents
	snaps  map[string]rl.Snapshot
	epSeed int64
	m      map[string]*rl.Agent
}

func (r *perServiceReplica) AgentFor(service string) *rl.Agent {
	if a, ok := r.m[service]; ok {
		return a
	}
	cfg := r.src.Cfg
	cfg.Seed = sim.DeriveSeed(cfg.Seed, service)
	cfg.BufferCap = 1 // acting replica: experience flows to the learner
	a := rl.New(cfg)
	// Prefer the learner's trained weights from the round snapshot; a
	// service the learner has not materialized yet warm-starts through the
	// learner's own warmStart rule, so the replica's acting policy is
	// bit-identical to what the learner will construct when this service's
	// first transition reaches it. (Replicas only act, so of the four
	// networks only the actor matters.)
	if snap, ok := r.snaps[service]; ok {
		if err := a.Load(snap); err != nil {
			panic(err) // snapshots come from agents of identical shape
		}
	} else {
		r.src.warmStart(a, service, cfg)
	}
	a.Reseed(sim.DeriveSeed(r.epSeed, service))
	if r.m == nil {
		r.m = make(map[string]*rl.Agent)
	}
	r.m[service] = a
	return a
}

func (r *perServiceReplica) Agents() []*rl.Agent { return agentsSorted(r.m) }

func (r *perServiceReplica) SyncPolicies(m map[string]rl.Snapshot) error {
	r.snaps = m
	for svc, a := range r.m {
		if snap, ok := m[svc]; ok {
			if err := a.Load(snap); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *perServiceReplica) BeginEpisode(episodeSeed int64) {
	r.epSeed = episodeSeed
	for svc, a := range r.m {
		a.Reseed(sim.DeriveSeed(episodeSeed, svc))
	}
}

// The control loop's fixed parameters.
const (
	// Interval is the control-loop period (time step t of §3.4).
	Interval = sim.Second
	// Window is how far back traces are considered per tick.
	Window = 2 * Interval
	// alpha weighs SLO compliance vs utilization in the reward.
	alpha = 0.8
	// headroom scales the action-space ceiling relative to each service's
	// reference (initial) limits.
	headroom = 4
	// topK caps how many culprit instances are actuated per tick.
	topK = 3
	// guidedEps is the probability, during training, of substituting the
	// actor's exploration with a guided action that maxes the limits of
	// resources the state reports as oversubscribed (util ≥ 1.2). Seeding
	// the replay buffer with successful mitigations is the continuous-
	// control analogue of demonstration data and substantially shortens
	// the exploration phase the paper spends its first ~1000 episodes on.
	guidedEps = 0.35
)

// Config tunes the FIRM controller.
type Config struct {
	// Training enables exploration noise, replay-buffer writes, and
	// gradient updates.
	Training bool
	// Sink, when non-nil, diverts every finalized transition (in emission
	// order) away from the replay-buffer write and gradient step. Rollout
	// actor workers set it to collect experience for a central learner;
	// Training should be true alongside it so the policy still explores.
	Sink TransitionSink
	// IdleReclaim, when positive, gently decays limits of underutilized
	// containers every IdleReclaim ticks during violation-free periods —
	// FIRM's utilization objective is what drives the requested-CPU
	// reduction of Fig. 10(b).
	IdleReclaim int
	// ReclaimFactor is the per-reclaim decay (e.g. 0.93).
	ReclaimFactor float64
}

// DefaultConfig returns the controller configuration used in experiments.
func DefaultConfig() Config {
	return Config{IdleReclaim: 5, ReclaimFactor: 0.93}
}

// pendingAction is a state-action pair awaiting its next-tick reward.
type pendingAction struct {
	service  string
	instance uint32
	state    []float64
	action   []float64
}

// Controller is the FIRM control loop.
type Controller struct {
	cfg Config

	eng   *sim.Engine
	app   *app.App
	db    *tracedb.Store
	col   *telemetry.Collector
	meter *telemetry.Meter
	dep   *deploy.Module
	prov  AgentProvider
	sb    *agent.StateBuilder

	ticker  *sim.Ticker
	pending []pendingAction

	// mon mirrors the trace store's current window incrementally (fed by
	// tracedb's observer stream), so the per-tick violation check and P99
	// measurement are an index into a sorted slice, allocation-free, instead
	// of re-selecting and re-sorting the window. loc does the same for the
	// violated path's localization features: per-instance (RI, CI) state is
	// maintained as traces arrive and expire, so a violated tick scores
	// candidates without re-selecting the window or re-extracting critical
	// paths.
	mon *detect.Monitor
	loc *detect.Localizer

	violationSince sim.Time
	inViolation    bool
	// stickyCulprits remembers the instances localized at violation onset:
	// once an anomaly saturates the window, per-instance variability
	// features flatten (a uniformly slow victim has CI≈1), so the
	// controller keeps reprovisioning the onset culprits until the
	// violation clears, as the paper's mitigation loop does.
	stickyCulprits []detect.Candidate

	// Metrics.
	Ticks          uint64
	Actions        uint64
	Mitigations    []float64 // mitigation times, seconds
	EpisodeReward  float64
	RewardObserved uint64
}

// New wires a FIRM controller. It panics unless db keeps full traces for
// Window + Interval: the monitor and localizer hold Window of them, and the
// store moves on for up to an Interval before they advance, so a shorter
// store would evict traces they still hold.
func New(cfg Config, a *app.App, db *tracedb.Store, col *telemetry.Collector,
	meter *telemetry.Meter, dep *deploy.Module, ext *detect.Extractor,
	prov AgentProvider) *Controller {
	return NewReusing(nil, cfg, a, db, col, meter, dep, ext, prov)
}

// NewReusing is New, except that a non-nil prev hands the new controller its
// monitor and localizer, reset, so their storage outlives one episode. prev
// must be dead — its engine reset and its store's observers forgotten — and
// is not used again.
func NewReusing(prev *Controller, cfg Config, a *app.App, db *tracedb.Store, col *telemetry.Collector,
	meter *telemetry.Meter, dep *deploy.Module, ext *detect.Extractor,
	prov AgentProvider) *Controller {
	if need := Window + Interval; db.Window() < need {
		panic(fmt.Sprintf("core: the trace store keeps %v of traces, the controller reads %v", db.Window(), need))
	}
	c := &Controller{
		cfg: cfg, eng: a.Engine(), app: a, db: db, col: col, meter: meter,
		dep: dep, prov: prov,
		sb: &agent.StateBuilder{Col: col, Meter: meter, SLO: a.SLO},
	}
	if prev != nil {
		c.mon, c.loc = prev.mon, prev.loc
		prev.mon, prev.loc = nil, nil
		c.mon.Reset()
		c.loc.Reset(ext)
	} else {
		c.mon, c.loc = detect.NewMonitor(256), detect.NewLocalizer(ext, 256)
	}
	// Observe replays traces already stored, so attaching a controller
	// mid-workload sees the same window a fresh Select would.
	db.Observe(c.mon)
	db.Observe(c.loc)
	c.ticker = sim.NewTicker(c.eng, Interval, c.tick)
	return c
}

// Start begins the control loop.
func (c *Controller) Start() { c.ticker.Start() }

// Monitor returns the controller's incremental tail-latency window
// (read-only: perf accounting and tests).
func (c *Controller) Monitor() *detect.Monitor { return c.mon }

// Localizer returns the controller's incremental localizer, for tests that
// compare its Candidates.
func (c *Controller) Localizer() *detect.Localizer { return c.loc }

// ResetEpisode clears per-episode accumulators and flushes pending
// transitions as terminal (used between RL training episodes).
func (c *Controller) ResetEpisode() {
	c.flushPending(true)
	c.EpisodeReward = 0
	c.RewardObserved = 0
	c.inViolation = false
	c.stickyCulprits = c.stickyCulprits[:0]
	for _, ag := range c.prov.Agents() {
		ag.ResetNoise()
	}
}

// windowP99 advances the incremental window to the current time and
// returns its effective P99; used where no tick is in progress (episode
// resets between ticks).
func (c *Controller) windowP99() sim.Time {
	c.mon.Advance(c.eng.Now() - Window)
	return c.monitorP99()
}

// monitorP99 returns the already-advanced window's effective P99
// end-to-end latency, bit-identical to the batch computation over a fresh
// window selection (stats.Window reproduces stats.Percentile exactly).
// Dropped requests are infinitely slow requests: any drop in the window
// pushes the effective P99 to at least 10× the SLO so the SV signal cannot
// be gamed by shedding load (starving a container until every request drops
// would otherwise read as "no latency, no violation").
//
//firmvet:noalloc
func (c *Controller) monitorP99() sim.Time {
	var p99 sim.Time
	if c.mon.Completed() > 0 {
		p99 = sim.FromMillis(c.mon.P99())
	}
	if c.mon.Drops() > 0 {
		if floor := 10 * c.app.SLO; p99 < floor {
			p99 = floor
		}
	}
	return p99
}

// flushPending converts outstanding state-action pairs into transitions
// using the current measurements.
func (c *Controller) flushPending(done bool) {
	if len(c.pending) == 0 {
		return
	}
	c.flushPendingAt(done, c.windowP99())
}

// flushPendingAt is flushPending with the window P99 already computed (the
// tick measures it once and reuses it for reward, flush, and actuation).
//
//firmvet:noalloc
func (c *Controller) flushPendingAt(done bool, p99 sim.Time) {
	if len(c.pending) == 0 {
		return
	}
	for _, p := range c.pending {
		culprit := p99 > c.app.SLO
		sv := c.sb.SV(p99, culprit)
		var util cluster.Vector
		if s, ok := c.col.Latest(p.instance); ok {
			util = s.Util()
		}
		r := agent.Reward(sv, util, alpha)
		c.RewardObserved++
		s2 := c.sb.State(p.instance, p99, culprit)
		tr := rl.Transition{S: p.state, A: p.action, R: r, S2: s2, Done: done}
		if c.cfg.Sink != nil {
			c.cfg.Sink(p.service, tr)
			continue
		}
		ag := c.prov.AgentFor(p.service)
		ag.Observe(tr)
		if c.cfg.Training {
			ag.TrainStep()
		}
	}
	c.pending = c.pending[:0]
}

// TickNow runs one control-loop tick at the current simulated time,
// outside the ticker schedule. It exists for the tick-path microbenchmarks
// and profiling (internal/perf); simulations drive ticks through Start.
func (c *Controller) TickNow() { c.tick() }

//firmvet:noalloc
func (c *Controller) tick() {
	c.Ticks++
	now := c.eng.Now()
	// The incremental window answers the per-tick questions — violated?
	// effective P99? — without selecting or sorting anything: traces were
	// added as they completed, and expire here. Bit-identical to the batch
	// path (detect.Violated + stats.Percentile over a fresh Select).
	c.mon.Advance(now - Window)
	// Advance the localizer every tick too (cheap ring pops): its pending
	// state must stay bounded by the window even across calm stretches.
	c.loc.Advance(now - Window)
	violated := c.mon.Violated(c.app.SLO)
	// One P99 measurement per tick: reward bookkeeping, pending-transition
	// flush, and the actuation loop below all reuse it (the window cannot
	// change mid-tick — no events run inside a tick).
	p99 := c.monitorP99()

	// Episode-reward bookkeeping: a per-tick global objective signal
	// (SLO compliance + cluster utilization), accumulated every tick so
	// learning curves (Fig. 11a) measure policy quality independent of how
	// many mitigation actions fired.
	globalSV := c.sb.SV(p99, violated)
	var utilSum cluster.Vector
	nc := 0
	for _, rs := range c.app.Cluster().ReplicaSets() {
		for _, ct := range rs.Containers() {
			if ct.Ready() {
				utilSum = utilSum.Add(ct.Utilization())
				nc++
			}
		}
	}
	if nc > 0 {
		utilSum = utilSum.Scale(1 / float64(nc))
	}
	c.EpisodeReward += agent.Reward(globalSV, utilSum, alpha)

	// Close the loop on last tick's actions first (reward observation).
	c.flushPendingAt(false, p99)

	// Mitigation-time bookkeeping (Fig. 11b's metric).
	switch {
	case violated && !c.inViolation:
		c.inViolation = true
		c.violationSince = now
	case !violated && c.inViolation:
		c.inViolation = false
		c.Mitigations = append(c.Mitigations, (now - c.violationSince).Seconds())
		c.stickyCulprits = c.stickyCulprits[:0]
	}

	if !violated {
		c.maybeReclaim()
		return
	}

	// Localize culprits (Alg. 2) and actuate RL decisions on the top-K.
	// The incremental localizer already mirrors the window; it folds in any
	// traces that arrived since the last violated tick (each extracted
	// once) and rescores — bit-identical to the batch
	// ext.Candidates(Select(window)) it replaces.
	cands := c.loc.Candidates()
	//firmvet:allow noalloc -- violated-tick path only; the sort.Slice closure and interface box are off the steady-state (calm-tick) budget
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	anyCritical := false
	for _, cand := range cands {
		if cand.Critical {
			anyCritical = true
			break
		}
	}
	if anyCritical {
		c.stickyCulprits = c.stickyCulprits[:0]
		for _, cand := range cands {
			if cand.Critical {
				c.stickyCulprits = append(c.stickyCulprits, cand)
			}
		}
	} else {
		// Mid-anomaly the window has no baseline contrast; keep working on
		// the culprits identified at onset.
		cands = c.stickyCulprits
		for i := range cands {
			cands[i].Critical = true
		}
	}
	acted := 0
	for _, cand := range cands {
		if acted >= topK {
			break
		}
		if !cand.Critical {
			continue
		}
		ct := c.app.Cluster().Container(cand.Instance)
		if ct == nil || !ct.Ready() {
			continue
		}
		svc := c.app.Spec.Services[ct.Service]
		if svc == nil {
			continue
		}
		ag := c.prov.AgentFor(ct.Service)
		st := c.sb.State(cand.Instance, p99, true)
		var act []float64
		switch {
		case c.cfg.Training && c.eng.Rand().Float64() < guidedEps:
			act = agent.GuidedAction(st)
		case c.cfg.Training:
			act = ag.ActExplore(st)
		default:
			act = ag.Act(st)
		}
		space := agent.SpaceFor(ct, svc.Limits, c.app.Cluster().Config().MinLimit, headroom)
		limits := space.Decode(act)
		c.dep.ApplyLimits(ct, limits, nil)
		c.Actions++
		acted++
		c.pending = append(c.pending, pendingAction{
			service: ct.Service, instance: cand.Instance, state: st, action: act,
		})
	}
}

// maybeReclaim decays limits of strongly underutilized containers during
// calm periods, bounded below by the cluster's minimum limits.
func (c *Controller) maybeReclaim() {
	if c.cfg.IdleReclaim <= 0 || c.Ticks%uint64(c.cfg.IdleReclaim) != 0 {
		return
	}
	f := c.cfg.ReclaimFactor
	if f <= 0 || f >= 1 {
		f = 0.93
	}
	for _, rs := range c.app.Cluster().ReplicaSets() {
		for _, ct := range rs.Containers() {
			if !ct.Ready() {
				continue
			}
			util := ct.Utilization()
			max := util.MaxElem()
			if max >= 0.5 {
				continue
			}
			c.dep.ApplyLimits(ct, ct.Limits().Scale(f), nil)
		}
	}
}

// MeanMitigationTime returns the average observed mitigation time (s).
func (c *Controller) MeanMitigationTime() float64 {
	if len(c.Mitigations) == 0 {
		return 0
	}
	return stats.Mean(c.Mitigations)
}
