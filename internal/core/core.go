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
	"maps"
	"slices"
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

// TransitionSink receives finalized transitions in emission order. When
// Config.Sink is set, the controller diverts transitions here instead of
// writing the replay buffer and stepping gradients: rollout actor workers
// (internal/rollout) collect experience this way for a central learner that
// replays it in a fixed episode order.
type TransitionSink func(service string, t rl.Transition)

// Policies maps each microservice to the RL agent that provisions it,
// covering the paper's three variants (§3.4): one-for-all (Shared, one
// agent for every service), one-for-each (PerService, an agent tailored to
// each service) and transferred (PerService from a base, each agent
// warm-started from a general one). A rollout learner's table also hands
// its workers acting replicas (Replica) and copies its actors into them at
// round boundaries (Sync).
type Policies struct {
	shared *rl.Agent // the one agent of a Shared table; nil for PerService

	cfg  rl.Config
	base *rl.Agent
	init func(*rl.Agent)
	m    map[string]*rl.Agent
	// fresh memoizes each service's post-init agent; a table and its
	// replicas share it.
	fresh *freshMemo

	// After a BeginEpisode, agents AgentFor creates explore from its seed.
	epSeed   int64
	episodic bool
}

// sharedKey names the shared agent where a per-service table would name a
// service: its episode seeds derive from it.
const sharedKey = "shared"

// Shared is the one-for-all table: every service gets a.
func Shared(a *rl.Agent) *Policies { return &Policies{shared: a} }

// PerService is the one-for-each table. AgentFor creates a service's agent
// on its first call, seeded from sim.DeriveSeed(cfg.Seed, service). A
// non-nil base warm-starts every new agent from it (transfer learning,
// §3.4); otherwise a non-nil init (e.g. behaviour-cloning pretraining) runs
// once per service on a fresh agent, which every new agent for that
// service then copies.
func PerService(cfg rl.Config, base *rl.Agent, init func(*rl.Agent)) *Policies {
	return &Policies{cfg: cfg, base: base, init: init, fresh: &freshMemo{m: make(map[string]*freshEntry)}}
}

// AgentFor returns service's agent, creating a per-service one on first
// use. The learner and every replica create an agent by this one rule, so
// a service first met by a replica acts exactly as the learner will build
// it — the rollout engine's byte-equality guarantee rests on that.
func (p *Policies) AgentFor(service string) *rl.Agent {
	if p.shared != nil {
		return p.shared
	}
	if a, ok := p.m[service]; ok {
		return a
	}
	cfg := p.cfg
	cfg.Seed = sim.DeriveSeed(cfg.Seed, service)
	a := rl.New(cfg)
	switch {
	case p.base != nil:
		// Init before a transfer would be overwritten, so it is skipped.
		// base is only ever read, so concurrent replicas are safe.
		must(a.TransferFrom(p.base))
	case p.init != nil:
		must(a.TransferFrom(p.fresh.agent(service, cfg, p.init)))
	}
	if p.episodic {
		a.Reseed(sim.DeriveSeed(p.epSeed, service))
	}
	if p.m == nil {
		p.m = make(map[string]*rl.Agent)
	}
	p.m[service] = a
	return a
}

// Agents returns every agent of the table, per-service ones in service-name
// order (snapshotting, training stats).
func (p *Policies) Agents() []*rl.Agent {
	if p.shared != nil {
		return []*rl.Agent{p.shared}
	}
	out := make([]*rl.Agent, 0, len(p.m))
	for _, svc := range slices.Sorted(maps.Keys(p.m)) {
		out = append(out, p.m[svc])
	}
	return out
}

// Replica returns an empty table of p's kind for one rollout worker to act
// through. Its agents keep a one-transition replay buffer (the worker's
// experience goes to the learner through a Sink) and its shared agent's
// actor is undefined until Sync. A per-service replica shares p's init
// memo.
func (p *Policies) Replica() *Policies {
	if p.shared != nil {
		cfg := p.shared.Config()
		cfg.BufferCap = 1
		return Shared(rl.New(cfg))
	}
	r := &Policies{cfg: p.cfg, base: p.base, init: p.init, fresh: p.fresh}
	r.cfg.BufferCap = 1
	return r
}

// Sync copies p's actors into replicas, each made by p.Replica: the shared
// agent's actor, or every per-service agent's, creating the replica's
// agent for a service it lacks. Replicas only act, so the actor is all
// they carry over; they keep no reference to p's agents, so p trains on
// after Sync without moving them. Sync runs at a round barrier, while
// neither side trains or acts. A warm Sync allocates nothing.
func (p *Policies) Sync(replicas []*Policies) {
	for _, r := range replicas {
		if p.shared != nil {
			must(r.shared.CopyActor(p.shared))
		}
		for svc, a := range p.m {
			must(r.AgentFor(svc).CopyActor(a))
		}
	}
}

// BeginEpisode re-derives every agent's exploration stream from the episode
// seed, and makes AgentFor do so for agents it creates later in the
// episode, so an episode's randomness depends neither on which worker runs
// it nor on what that worker ran before.
func (p *Policies) BeginEpisode(episodeSeed int64) {
	p.epSeed, p.episodic = episodeSeed, true
	if p.shared != nil {
		p.shared.Reseed(sim.DeriveSeed(episodeSeed, sharedKey))
	}
	for svc, a := range p.m {
		a.Reseed(sim.DeriveSeed(episodeSeed, svc))
	}
}

// freshMemo holds each service's post-init agent.
type freshMemo struct {
	mu sync.Mutex // guards m, not the agents in it
	m  map[string]*freshEntry
}

// freshEntry memoizes one service's post-init agent. once makes the first
// caller build it while later callers for the same service wait on it
// alone, never on another service's init.
type freshEntry struct {
	once sync.Once
	a    *rl.Agent
}

// agent returns service's post-init agent — weight init from cfg (the
// service-derived seed), then init — building it once. Every new agent for
// the service copies its four nets (TransferFrom), a copy orders of
// magnitude cheaper than init, so the learner and its replicas share this
// memo. The lock covers only the map lookup: init, caller code, runs
// outside it, and different services initialize concurrently.
func (m *freshMemo) agent(service string, cfg rl.Config, init func(*rl.Agent)) *rl.Agent {
	m.mu.Lock()
	e := m.m[service]
	if e == nil {
		e = &freshEntry{}
		m.m[service] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		cfg.BufferCap = 1 // scratch agent: only its nets are read
		e.a = rl.New(cfg)
		init(e.a)
	})
	return e.a
}

// must panics on a weight copy between agents of different shapes, which
// the tables never build.
func must(err error) {
	if err != nil {
		panic(err)
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
	prov  *Policies
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
	prov *Policies) *Controller {
	return NewReusing(nil, cfg, a, db, col, meter, dep, ext, prov)
}

// NewReusing is New, except that a non-nil prev hands the new controller its
// monitor and localizer, reset, so their storage outlives one episode. prev
// must be dead — its engine reset and its store's observers forgotten — and
// is not used again.
func NewReusing(prev *Controller, cfg Config, a *app.App, db *tracedb.Store, col *telemetry.Collector,
	meter *telemetry.Meter, dep *deploy.Module, ext *detect.Extractor,
	prov *Policies) *Controller {
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
	// The localizer already mirrors the window; it folds in any traces that
	// arrived since the last violated tick (each extracted once) and
	// rescores — the same candidates ext.Candidates folds from a fresh
	// Select(window).
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
