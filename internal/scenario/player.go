package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/injector"
	"firm/internal/sim"
	"firm/internal/topology"
)

// Env is everything a Player may touch. Eng, Cluster, and Spec are
// required. Injector is optional: when present, every atom activation
// appends a ground-truth record to the shared injection history (so SVM
// labels and localization scoring read one source of truth). App is
// optional: retry storms and per-edge partitions need it; without an App,
// RetryStorm degrades to pure victim pressure and Partition falls back to
// victim-wide network delay.
type Env struct {
	Eng      *sim.Engine
	Cluster  *cluster.Cluster
	Spec     *topology.Spec
	Injector *injector.Injector
	App      *app.App
}

// site is one container under scenario pressure: an atom's victim, or a
// cascade infection. advance recomputes its level each tick and applies
// the load delta in place, so scenario pressure composes with the
// injector's own loads and with other sites on the same container.
type site struct {
	c         *cluster.Container
	level     float64 // target pressure in [0,1], scaled by family weights
	applied   cluster.Vector
	active    bool
	membw     bool // leak-shaped (MemBW+LLC) vs compute-shaped (CPU)
	intensity float64
	stop      func() // ground-truth record stop; may be nil
}

// atomState is the runtime of one flattened atom.
type atomState struct {
	spec   *Spec
	victim string
	start  sim.Time
	end    sim.Time
	active bool

	sites []int // indices into Player.sites owned by this atom

	// MemLeak: start of the current leak cycle (reset by each OOM kill)
	// and the cycle period.
	cycleStart sim.Time
	cyclePerid sim.Time

	// Metastable: end of the trigger phase, and whether the feedback loop
	// released (utilization fell below the sustain threshold).
	triggerEnd sim.Time
	released   bool

	// Partition: the edges this atom degraded (to undo on deactivation).
	edges []app.Edge

	// RetryStorm: whether this atom armed the app's retry policy.
	armedRetry bool
}

// Player drives one composed Spec against a deployed application. All
// timing flows through sim.Engine timers and all randomness through
// streams derived from (seed, Spec.Key()), so a run is deterministic per
// (Spec, seed) under any worker or shard count.
type Player struct {
	env  Env
	spec *Spec
	seed int64

	// OOMKills counts leak-driven container recycles.
	OOMKills int
	// Infections counts cascade propagations beyond the initial victim.
	Infections int

	atoms []atomState
	sites []site
	tick  *sim.Ticker

	rng    *rand.Rand // victim picks, cascade draws
	appRng *rand.Rand // partition loss draws inside the app

	faults map[app.Edge]app.EdgeFault

	armed bool
}

// tickPeriod is the player's advance cadence.
const tickPeriod = 250 * sim.Millisecond

// leakLLCWeight is the LLC pressure a leak applies relative to its MemBW
// pressure (a growing heap pollutes cache as it churns).
const leakLLCWeight = 0.5

// metastableSustain is the fraction of trigger intensity the feedback
// term keeps applying while the victim stays hot.
const metastableSustain = 0.35

// metastableThreshold is the utilization above which the feedback loop
// stays engaged. The sustain load alone keeps utilization near
// sustain×LoadScale (≈0.7 at intensity 0.8), deliberately below this
// threshold: an otherwise-idle victim recovers when the trigger clears,
// while one carrying real traffic stays pinned — the metastable failure
// pattern.
const metastableThreshold = 0.75

// cascadeDecay scales intensity down per propagation hop.
const cascadeDecay = 0.7

// cascadeRounds is how many propagation opportunities a cascade gets
// across its duration.
const cascadeRounds = 6

// leakCycles is how many OOM-kill cycles a MemLeak crash-loops through
// across its duration.
const leakCycles = 3

// partitionDropScale converts intensity to per-edge loss probability.
const partitionDropScale = 0.4

// partitionDelay is the per-edge delay a partition adds at intensity, on
// the injector's network-delay scale. It is (intensity × 80) × 1 ms, not the
// injector's 80 ms × intensity: the two round differently, and the goldens
// pin this order.
func partitionDelay(intensity float64) sim.Time {
	return sim.Time(intensity * float64(injector.MaxNetDelay/sim.Millisecond) * float64(sim.Millisecond))
}

// NewPlayer validates the spec against the deployed topology, flattens it
// to absolutely-timed atoms, and resolves victims — picking unpinned ones
// deterministically from (seed, Spec.Key()). It touches no engine state
// until Arm.
func NewPlayer(env Env, sc *Spec, seed int64) (*Player, error) {
	if env.Eng == nil || env.Cluster == nil || env.Spec == nil {
		return nil, fmt.Errorf("scenario: Env needs Eng, Cluster, and Spec")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	key := sc.Key()
	p := &Player{
		env:    env,
		spec:   sc,
		seed:   seed,
		rng:    sim.Stream(sim.DeriveSeed(seed, "scenario-"+key), "scenario"),
		appRng: sim.Stream(sim.DeriveSeed(seed, "scenario-net-"+key), "scenario"),
		faults: make(map[app.Edge]app.EdgeFault),
	}
	// Unpinned victims draw from the on-path pool: services that some
	// endpoint workflow actually calls. A fault on an off-path service is
	// invisible to the workload, which defeats every scenario's purpose.
	onPath := make(map[string]bool, len(env.Spec.Services))
	for _, ep := range env.Spec.Endpoints {
		if ep.Root != nil {
			onPath[ep.Root.Service] = true
		}
	}
	for _, e := range env.Spec.Edges() {
		onPath[e[0]] = true
		onPath[e[1]] = true
	}
	names := make([]string, 0, len(env.Spec.Services))
	for name := range env.Spec.Services {
		if onPath[name] {
			names = append(names, name)
		}
	}
	if len(names) == 0 { // degenerate spec: fall back to every service
		for name := range env.Spec.Services {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, ta := range sc.Atoms() {
		victim := ta.Target
		if victim == "" {
			victim = names[p.rng.Intn(len(names))]
		} else if env.Spec.Services[victim] == nil {
			return nil, fmt.Errorf("scenario: target %q not in topology %s", victim, env.Spec.Name)
		}
		a := atomState{
			spec:   ta.Spec,
			victim: victim,
			start:  ta.Start,
			end:    ta.Start + ta.Spec.Duration,
		}
		switch ta.Spec.Family {
		case MemLeak:
			a.cyclePerid = ta.Spec.Duration / leakCycles
		case Metastable:
			a.triggerEnd = a.start + ta.Spec.Duration/3
		}
		p.atoms = append(p.atoms, a)
	}
	// Sites never reallocate after Arm: one victim site per atom plus, for
	// each cascade, at most one infection per service.
	p.sites = make([]site, 0, len(p.atoms)*(1+len(names)))
	return p, nil
}

// Horizon is when the last atom ends, relative to Arm time. Experiments
// size their measurement window from it.
func (p *Player) Horizon() sim.Time { return p.spec.Span() }

// Arm schedules every atom's activation, deactivation, and structural
// events (OOM kills, cascade propagation rounds) on the engine, relative
// to now, and starts the advance ticker. Call once.
func (p *Player) Arm() {
	if p.armed {
		return
	}
	p.armed = true
	base := p.env.Eng.Now()
	for i := range p.atoms {
		a := &p.atoms[i]
		a.start += base
		a.end += base
		a.cycleStart = a.start
		a.triggerEnd += base
		idx := i
		p.env.Eng.ScheduleAt(a.start, func() { p.activate(idx) })
		p.env.Eng.ScheduleAt(a.end, func() { p.deactivate(idx) })
		switch a.spec.Family {
		case MemLeak:
			for k := 1; k < leakCycles; k++ {
				p.env.Eng.ScheduleAt(a.start+sim.Time(k)*a.cyclePerid, func() { p.oomKill(idx) })
			}
		case Cascade:
			interval := a.spec.Duration / cascadeRounds
			for k := 1; k < cascadeRounds; k++ {
				p.env.Eng.ScheduleAt(a.start+sim.Time(k)*interval, func() { p.propagate(idx) })
			}
		}
	}
	p.tick = sim.NewTicker(p.env.Eng, tickPeriod, p.advance)
	p.tick.Start()
	p.env.Eng.ScheduleAt(base+p.Horizon()+tickPeriod, func() {
		p.advance() // final settle so ramps end exactly at zero
		p.tick.Stop()
	})
}

// pickContainer resolves the first live replica of a service (containers
// are in placement order, so the pick is deterministic).
func (p *Player) pickContainer(service string) *cluster.Container {
	rs := p.env.Cluster.ReplicaSet(service)
	if rs == nil || len(rs.Containers()) == 0 {
		return nil
	}
	return rs.Containers()[0]
}

// record appends ground truth to the shared injector history, if any.
func (p *Player) record(kind injector.Kind, c *cluster.Container, intensity float64, d sim.Time) func() {
	if p.env.Injector == nil || c == nil {
		return nil
	}
	stop, err := p.env.Injector.Record(injector.Injection{
		Kind: kind, Target: c, Intensity: intensity, Duration: d,
	})
	if err != nil {
		return nil
	}
	return stop
}

// addSite registers a pressure site for atom ai and returns its index.
func (p *Player) addSite(ai int, c *cluster.Container, intensity float64, membw bool, stop func()) int {
	p.sites = append(p.sites, site{
		c: c, active: true, membw: membw, intensity: intensity, stop: stop,
	})
	si := len(p.sites) - 1
	p.atoms[ai].sites = append(p.atoms[ai].sites, si)
	return si
}

// activate starts atom ai: resolve the victim container, open the
// ground-truth record, and arm family-specific hooks.
func (p *Player) activate(ai int) {
	a := &p.atoms[ai]
	c := p.pickContainer(a.victim)
	if c == nil {
		return // victim has no replicas; the atom is a no-op
	}
	a.active = true
	d := a.end - p.env.Eng.Now()
	sc := a.spec
	switch sc.Family {
	case MemLeak:
		p.addSite(ai, c, sc.Intensity, true, p.record(injector.MemBWStress, c, sc.Intensity, d))
	case Plateau:
		p.addSite(ai, c, sc.Intensity, false, p.record(injector.CPUStress, c, sc.Intensity, d))
	case RetryStorm:
		if p.env.App != nil {
			p.env.App.SetRetryPolicy(&app.RetryPolicy{
				MaxRetries: 1 + int(math.Round(3*sc.Intensity)),
				Backoff:    5 * sim.Millisecond,
			})
			a.armedRetry = true
		}
		p.addSite(ai, c, sc.Intensity, false, p.record(injector.CPUStress, c, sc.Intensity, d))
	case Cascade:
		p.addSite(ai, c, sc.Intensity, false, p.record(injector.CPUStress, c, sc.Intensity, d))
	case Metastable:
		p.addSite(ai, c, sc.Intensity, false, p.record(injector.CPUStress, c, sc.Intensity, d))
	case Partition:
		stop := p.record(injector.NetworkDelay, c, sc.Intensity, d)
		p.addSite(ai, c, 0, false, stop) // no load; site carries the record
		delay := partitionDelay(sc.Intensity)
		if p.env.App != nil {
			for _, e := range p.env.Spec.Edges() {
				if e[1] != a.victim {
					continue
				}
				edge := app.Edge{From: e[0], To: a.victim}
				p.faults[edge] = app.EdgeFault{
					Delay: delay,
					Drop:  partitionDropScale * sc.Intensity,
				}
				a.edges = append(a.edges, edge)
			}
			p.env.App.SetEdgeFaults(p.faults, p.appRng)
		} else {
			c.SetNetDelay(c.NetDelay() + delay)
		}
	}
}

// deactivate ends atom ai: zero its sites' pressure, close records, and
// undo family hooks.
func (p *Player) deactivate(ai int) {
	a := &p.atoms[ai]
	if !a.active {
		return
	}
	a.active = false
	for _, si := range a.sites {
		s := &p.sites[si]
		s.active = false
		s.level = 0
		p.applySite(s)
		if s.stop != nil {
			s.stop()
		}
	}
	if a.armedRetry {
		p.env.App.SetRetryPolicy(nil)
		a.armedRetry = false
	}
	if a.spec.Family == Partition {
		if p.env.App != nil {
			for _, e := range a.edges {
				delete(p.faults, e)
			}
			a.edges = a.edges[:0]
			if len(p.faults) == 0 {
				p.env.App.SetEdgeFaults(nil, nil)
			} else {
				p.env.App.SetEdgeFaults(p.faults, p.appRng)
			}
		} else if c := p.sites[a.sites[0]].c; c != nil {
			delay := partitionDelay(a.spec.Intensity)
			c.SetNetDelay(c.NetDelay() - delay)
		}
	}
}

// oomKill recycles the leak victim: the kernel kills the container (its
// queue drops), a cold restart replaces it, and the leak begins again —
// the crash-loop signature.
func (p *Player) oomKill(ai int) {
	a := &p.atoms[ai]
	if !a.active || len(a.sites) == 0 {
		return
	}
	s := &p.sites[a.sites[0]]
	victim := s.c
	rs := p.env.Cluster.ReplicaSet(a.victim)
	if victim == nil || rs == nil {
		return
	}
	limits := victim.Limits()
	// Clear the leak's pressure first so the dead container's node-side
	// contribution doesn't outlive it.
	s.level = 0
	p.applySite(s)
	if !rs.RemoveReplica(victim) {
		return // already scaled in by the controller; leak the new pick
	}
	p.OOMKills++
	replacement, err := rs.AddReplica(limits, true, false)
	if err != nil {
		replacement = p.pickContainer(a.victim)
	}
	s.c = replacement
	a.cycleStart = p.env.Eng.Now()
}

// propagate runs one cascade round for atom ai: every service already
// infected tries to infect each of its callers with probability Prob,
// at intensity decayed per hop. Draws happen in deterministic edge order.
func (p *Player) propagate(ai int) {
	a := &p.atoms[ai]
	if !a.active {
		return
	}
	infected := make(map[string]float64, len(a.sites))
	for _, si := range a.sites {
		s := &p.sites[si]
		if s.c != nil && s.active {
			infected[s.c.Service] = s.intensity
		}
	}
	d := a.end - p.env.Eng.Now()
	if d <= 0 {
		return
	}
	for _, e := range p.env.Spec.Edges() { // sorted: deterministic draw order
		from, to := e[0], e[1]
		level, hot := infected[to]
		if !hot {
			continue
		}
		if _, already := infected[from]; already {
			continue
		}
		if p.rng.Float64() >= a.spec.Prob {
			continue
		}
		c := p.pickContainer(from)
		if c == nil {
			continue
		}
		next := level * cascadeDecay
		p.addSite(ai, c, next, false, p.record(injector.CPUStress, c, next, d))
		p.Infections++
		infected[from] = next // one hop per round: mark, don't re-walk
	}
}

// applySite swaps the site's applied load for its current target load,
// leaving other contributions (injector anomalies, other sites) intact.
func (p *Player) applySite(s *site) {
	if s.c == nil {
		return
	}
	var load cluster.Vector
	if s.level > 0 {
		limits := s.c.Limits()
		if s.membw {
			load[cluster.MemBW] = s.level * injector.LoadScale * limits[cluster.MemBW]
			load[cluster.LLC] = s.level * injector.LoadScale * limits[cluster.LLC] * leakLLCWeight
		} else {
			load[cluster.CPU] = s.level * injector.LoadScale * limits[cluster.CPU]
		}
	}
	s.c.SetInjectedLoad(s.c.InjectedLoad().Sub(s.applied).Add(load))
	s.applied = load
}

// StepNow runs one advance immediately (benchmark entry point; the armed
// ticker normally drives this).
func (p *Player) StepNow() { p.advance() }

// advance is the per-tick scenario step: recompute every active site's
// pressure level from its atom's dynamics and apply the load delta. It
// runs on the hot tick path, so it allocates nothing; structural changes
// (activation, kills, infections) happen in their own scheduled events.
//
//firmvet:noalloc
func (p *Player) advance() {
	now := p.env.Eng.Now()
	for i := range p.atoms {
		a := &p.atoms[i]
		if !a.active {
			continue
		}
		switch a.spec.Family {
		case MemLeak:
			// Linear RSS ramp across the current kill cycle.
			u := float64(now-a.cycleStart) / float64(a.cyclePerid)
			if u > 1 {
				u = 1
			}
			if u < 0 {
				u = 0
			}
			for _, si := range a.sites {
				s := &p.sites[si]
				s.level = s.intensity * u
				p.applySite(s)
			}
		case Plateau:
			// Saturating rise: fast onset, flat top — a convoy forming on a
			// hot lock, not a spike.
			u := float64(now-a.start) / float64(a.end-a.start)
			level := 1 - math.Exp(-5*u)
			for _, si := range a.sites {
				s := &p.sites[si]
				s.level = s.intensity * level
				p.applySite(s)
			}
		case RetryStorm, Cascade:
			// Constant pressure; cascade sites join at their own intensity.
			for _, si := range a.sites {
				s := &p.sites[si]
				s.level = s.intensity
				p.applySite(s)
			}
		case Metastable:
			for _, si := range a.sites {
				s := &p.sites[si]
				if a.released {
					continue
				}
				if now < a.triggerEnd {
					s.level = s.intensity
					p.applySite(s)
					continue
				}
				// Trigger cleared: the feedback term sustains pressure only
				// while the victim stays hot; once utilization drops below
				// the threshold the system escapes the metastable state.
				if s.c != nil && s.c.Utilization().MaxElem() >= metastableThreshold {
					s.level = s.intensity * metastableSustain
					p.applySite(s)
				} else {
					a.released = true
					s.level = 0
					s.active = false
					p.applySite(s)
					if s.stop != nil {
						s.stop()
					}
				}
			}
		case Partition:
			// Pure network effect; nothing to ramp per tick.
		}
	}
}
