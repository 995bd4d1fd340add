package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"firm/internal/cluster"
	"firm/internal/core"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/rl"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

func bench(t *testing.T, seed int64) *harness.Bench {
	t.Helper()
	b, err := harness.New(harness.Options{
		Seed:      seed,
		Spec:      topology.HotelReservation(),
		SLOMargin: 1.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSharedAgentProvider(t *testing.T) {
	p := harness.SharedAgent(1)
	a := p.AgentFor("x")
	if p.AgentFor("y") != a {
		t.Fatal("one-for-all must return the same agent")
	}
	if len(p.Agents()) != 1 {
		t.Fatal("agents list")
	}
}

func TestPerServiceAgentsDistinctAndTransferred(t *testing.T) {
	base := rl.New(rl.DefaultConfig())
	cfg := rl.DefaultConfig()
	cfg.Seed = 2
	p := core.PerService(cfg, base, nil)
	ax := p.AgentFor("svc-x")
	ay := p.AgentFor("svc-y")
	if ax == ay {
		t.Fatal("one-for-each must return distinct agents")
	}
	if p.AgentFor("svc-x") != ax {
		t.Fatal("agents must be cached")
	}
	s := make([]float64, 8)
	bx := base.Act(s)
	gx := ax.Act(s)
	for i := range bx {
		if bx[i] != gx[i] {
			t.Fatal("transferred agent must start from base policy")
		}
	}
	if len(p.Agents()) != 2 {
		t.Fatal("agents list")
	}
}

// An untrained transfer acts exactly as its base: with Training off, per-
// service agents warm-started from one base and the shared base itself are
// the same policy on every service of an application, bit for bit.
func TestTransferredAgentsActAsSharedBase(t *testing.T) {
	bcfg := rl.DefaultConfig()
	bcfg.Seed = 9
	base := rl.New(bcfg)
	cfg := rl.DefaultConfig()
	cfg.Seed = 4
	per := core.PerService(cfg, base, nil)
	shared := core.Shared(base)
	r := rand.New(rand.NewSource(5))
	state := make([]float64, bcfg.StateDim)
	for svc := range topology.SocialNetwork().Services {
		for k := 0; k < 16; k++ {
			for i := range state {
				state[i] = 4*r.Float64() - 2
			}
			want := shared.AgentFor(svc).Act(state)
			got := per.AgentFor(svc).Act(state)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s: action %v, shared base acts %v", svc, got, want)
				}
			}
		}
	}
}

func TestControllerRunsQuietly(t *testing.T) {
	b := bench(t, 3)
	b.AttachWorkload(workload.Constant{RPS: 100})
	cfg := core.DefaultConfig()
	// Idle reclaim squeezes limits toward the knee by design; with an
	// untrained agent doing the refill this oscillates, so disable it to
	// observe the pure detection path on a calm cluster.
	cfg.IdleReclaim = 0
	ctl := b.AttachFIRM(cfg, harness.SharedAgent(3), nil)
	b.Eng.RunFor(20 * sim.Second)
	if ctl.Ticks == 0 {
		t.Fatal("control loop never ticked")
	}
	// No anomalies and SLO calibrated with margin: expect no violations and
	// hence no RL actions on culprits.
	if b.App.Violations > b.App.Completed/20 {
		t.Fatalf("too many violations on a quiet cluster: %d/%d",
			b.App.Violations, b.App.Completed)
	}
}

func TestControllerActsOnInjectedAnomaly(t *testing.T) {
	b := bench(t, 4)
	b.AttachWorkload(workload.Constant{RPS: 150})
	cfg := core.DefaultConfig()
	cfg.Training = true
	ctl := b.AttachFIRM(cfg, harness.SharedAgent(4), nil)
	b.Eng.RunFor(5 * sim.Second)

	// Inject a heavy memory-bandwidth anomaly on a critical-path service.
	victim := b.Cluster.ReplicaSet("search").Containers()[0]
	b.Injector.Inject(injector.Injection{
		Kind: injector.MemBWStress, Target: victim, Intensity: 1,
		Duration: 20 * sim.Second,
	})
	b.Eng.RunFor(40 * sim.Second)

	if ctl.Actions == 0 {
		t.Fatal("FIRM took no actions against an injected anomaly")
	}
	if ctl.RewardObserved == 0 {
		t.Fatal("no rewards observed (pending actions never resolved)")
	}
	// After the anomaly expires the violation must clear → mitigation time
	// bookkeeping records at least one entry.
	if len(ctl.Mitigations) == 0 {
		t.Fatal("no mitigation recorded after anomaly expiry")
	}
	if ctl.MeanMitigationTime() <= 0 {
		t.Fatal("mitigation time must be positive")
	}
}

func TestControllerChangesVictimLimits(t *testing.T) {
	b := bench(t, 5)
	b.AttachWorkload(workload.Constant{RPS: 150})
	cfg := core.DefaultConfig()
	cfg.Training = true
	cfg.IdleReclaim = 0 // isolate RL actions
	b.AttachFIRM(cfg, harness.SharedAgent(5), nil)
	b.Eng.RunFor(5 * sim.Second)

	victim := b.Cluster.ReplicaSet("profile-mongodb").Containers()[0]
	before := victim.Limits()
	b.Injector.Inject(injector.Injection{
		Kind: injector.IOStress, Target: victim, Intensity: 1,
		Duration: 25 * sim.Second,
	})
	b.Eng.RunFor(35 * sim.Second)
	after := victim.Limits()
	if before == after && b.Deploy.ScaleUps == 0 && b.Deploy.ScaleOuts == 0 {
		t.Fatalf("no actuation on the victim: %v -> %v", before, after)
	}
}

func TestIdleReclaimReducesRequestedCPU(t *testing.T) {
	b := bench(t, 6)
	b.AttachWorkload(workload.Constant{RPS: 20}) // very light load
	cfg := core.DefaultConfig()
	cfg.IdleReclaim = 2
	b.AttachFIRM(cfg, harness.SharedAgent(6), nil)
	before := b.Cluster.TotalRequestedCPU()
	b.Eng.RunFor(60 * sim.Second)
	after := b.Cluster.TotalRequestedCPU()
	if after >= before {
		t.Fatalf("idle reclaim did not reduce requested CPU: %v -> %v", before, after)
	}
	// Floors respected.
	floor := b.Cluster.Config().MinLimit[cluster.CPU]
	for _, c := range b.Containers() {
		if c.Limits()[cluster.CPU] < floor-1e-9 {
			t.Fatalf("limit below floor: %v", c.Limits())
		}
	}
}

func TestResetEpisode(t *testing.T) {
	b := bench(t, 7)
	b.AttachWorkload(workload.Constant{RPS: 150})
	cfg := core.DefaultConfig()
	cfg.Training = true
	ctl := b.AttachFIRM(cfg, harness.SharedAgent(7), nil)
	victim := b.Cluster.ReplicaSet("search").Containers()[0]
	b.Injector.Inject(injector.Injection{
		Kind: injector.CPUStress, Target: victim, Intensity: 1, Duration: 10 * sim.Second,
	})
	b.Eng.RunFor(15 * sim.Second)
	ctl.ResetEpisode()
	if ctl.EpisodeReward != 0 || ctl.RewardObserved != 0 {
		t.Fatal("reset did not clear episode accumulators")
	}
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSinkDivertsTransitionsFromLearner(t *testing.T) {
	b := bench(t, 4)
	b.AttachWorkload(workload.Constant{RPS: 150})
	cfg := core.DefaultConfig()
	cfg.Training = true
	var got int
	cfg.Sink = func(service string, tr rl.Transition) {
		if service == "" || len(tr.S) == 0 || len(tr.A) == 0 {
			t.Fatalf("malformed transition for %q: %+v", service, tr)
		}
		got++
	}
	prov := harness.SharedAgent(4)
	ctl := b.AttachFIRM(cfg, prov, nil)
	victim := b.Cluster.ReplicaSet("search").Containers()[0]
	b.Injector.Inject(injector.Injection{
		Kind: injector.MemBWStress, Target: victim, Intensity: 1,
		Duration: 20 * sim.Second,
	})
	b.Eng.RunFor(30 * sim.Second)
	ctl.ResetEpisode() // terminal flush must also go through the sink
	if got == 0 {
		t.Fatal("sink never received a transition")
	}
	ag := prov.Agents()[0]
	if ag.Buffer().Len() != 0 {
		t.Fatalf("sink mode must not write the replay buffer (%d entries)", ag.Buffer().Len())
	}
	if ag.Updates != 0 {
		t.Fatalf("sink mode must not step gradients (%d updates)", ag.Updates)
	}
}

func TestMitigationTimeEmptyMeanIsZero(t *testing.T) {
	b := bench(t, 8)
	ctl := b.AttachFIRM(core.DefaultConfig(), harness.SharedAgent(8), nil)
	if ctl.MeanMitigationTime() != 0 {
		t.Fatal("no mitigations → mean 0")
	}
}

// TestFreshPolicyOncePerService races N replicas over M unseen services:
// Init must run exactly once per service (the memo), every replica must end
// up with the same weights, and — run under -race — nothing but the memo's
// own lock may order them.
func TestFreshPolicyOncePerService(t *testing.T) {
	const replicas, services = 8, 6
	cfg := rl.DefaultConfig()
	cfg.Seed = 12
	var mu sync.Mutex
	inits := map[int64]int{} // by the agent's service-derived seed
	learner := core.PerService(cfg, nil, func(a *rl.Agent) {
		mu.Lock()
		inits[a.Config().Seed]++
		mu.Unlock()
		pretrain(t, a)
	})
	probe := []float64{0.4, -0.1, 0.9, 0.2, -0.7, 0.5, 0.3, 0.8}
	acts := make([][][]float64, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := learner.Replica()
			rep.BeginEpisode(7)
			acts[r] = make([][]float64, services)
			for s := 0; s < services; s++ {
				// Staggered starts, so first touches of a service collide.
				svc := (s + r) % services
				acts[r][svc] = rep.AgentFor(fmt.Sprintf("svc-%d", svc)).Act(probe)
			}
		}()
	}
	wg.Wait()
	if len(inits) != services {
		t.Fatalf("Init ran for %d distinct services, want %d", len(inits), services)
	}
	for seed, n := range inits {
		if n != 1 {
			t.Errorf("Init ran %d times for the service seeded %d, want 1", n, seed)
		}
	}
	for r := 1; r < replicas; r++ {
		for s := 0; s < services; s++ {
			if !sameVec(acts[0][s], acts[r][s]) {
				t.Fatalf("replica %d's svc-%d weights differ from replica 0's", r, s)
			}
		}
	}
	for s := 0; s < services; s++ {
		if !sameVec(acts[0][s], learner.AgentFor(fmt.Sprintf("svc-%d", s)).Act(probe)) {
			t.Fatalf("learner's svc-%d weights differ from the replicas'", s)
		}
	}
}

// TestFreshPolicyServicesInitConcurrently pins that one service's Init does
// not hold up another's: each of two Inits waits for the other to have
// started, which deadlocks if a lock is held across the call.
func TestFreshPolicyServicesInitConcurrently(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 12
	started := make(chan struct{}, 2)
	both := make(chan struct{})
	go func() {
		<-started
		<-started
		close(both)
	}()
	learner := core.PerService(cfg, nil, func(*rl.Agent) {
		started <- struct{}{}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Error("a second service's Init never started while the first was running")
		}
	})
	var wg sync.WaitGroup
	for _, svc := range []string{"svc-a", "svc-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			learner.Replica().AgentFor(svc)
		}()
	}
	wg.Wait()
}

// TestNewPanicsOnShortTraceWindow: the controller's monitor and localizer
// hold Window of traces and advance once per Interval, so a trace store
// that keeps less than Window + Interval would evict traces they still
// hold; core.New refuses one.
func TestNewPanicsOnShortTraceWindow(t *testing.T) {
	b, err := harness.New(harness.Options{
		Seed: 1, Spec: topology.HotelReservation(),
		TraceWindow: core.Window + core.Interval - sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("core.New accepted a trace store shorter than Window + Interval")
		}
	}()
	core.New(core.DefaultConfig(), b.App, b.DB, b.Col, b.Meter, b.Deploy, nil, harness.SharedAgent(1))
}

// TestTraceWindowInvisibleToController runs one anomaly campaign with the
// controller attached twice: on the default trace store, which keeps
// Window + Interval of full traces above a floor, and on one that keeps
// every trace. Every second, the controller's monitor (P99, drops) and
// localizer (Candidates) must be bit-identical across the two. At 800 rps
// the controller's window holds more traces than harness's 1,024-trace
// floor, so the window, not the floor, decides what the store keeps.
func TestTraceWindowInvisibleToController(t *testing.T) {
	ext := harness.NewExtractor(6)
	run := func(window sim.Time) (*harness.Bench, *core.Controller) {
		b, err := harness.New(harness.Options{Seed: 6, Spec: topology.HotelReservation(), SLOMargin: 1.6, TraceWindow: window})
		if err != nil {
			t.Fatal(err)
		}
		b.AttachWorkload(workload.Constant{RPS: 800})
		ctl := b.AttachFIRM(core.DefaultConfig(), harness.SharedAgent(6), ext)
		injector.DefaultCampaign(b.Injector, b.Containers()).Start()
		return b, ctl
	}
	wb, wc := run(0)
	ub, uc := run(tracedb.Forever)
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	candidates, held := 0, 0
	for sec := 1; sec <= 40; sec++ {
		wb.Eng.RunFor(sim.Second)
		ub.Eng.RunFor(sim.Second)
		wm, um := wc.Monitor(), uc.Monitor()
		if !same(wm.P99(), um.P99()) || wm.Drops() != um.Drops() || wm.Len() != um.Len() {
			t.Fatalf("second %d: monitor P99/drops/len %v/%d/%d, unbounded store %v/%d/%d",
				sec, wm.P99(), wm.Drops(), wm.Len(), um.P99(), um.Drops(), um.Len())
		}
		wl, ul := wc.Localizer().Candidates(), uc.Localizer().Candidates()
		if len(wl) != len(ul) {
			t.Fatalf("second %d: %d candidates, unbounded store %d", sec, len(wl), len(ul))
		}
		for i := range wl {
			w, u := wl[i], ul[i]
			if w.Instance != u.Instance || w.Service != u.Service || w.Critical != u.Critical ||
				!same(w.RI, u.RI) || !same(w.CI, u.CI) || !same(w.Score, u.Score) {
				t.Fatalf("second %d candidate %d: %+v, unbounded store %+v", sec, i, w, u)
			}
		}
		candidates += len(wl)
		held = max(held, wm.Len())
	}
	if wb.DB.Len() >= ub.DB.Len() || held <= 1024 || candidates == 0 || wc.Actions == 0 {
		t.Fatalf("vacuous: kept %d of %d traces, the monitor at most %d, %d candidates, %d actions",
			wb.DB.Len(), ub.DB.Len(), held, candidates, wc.Actions)
	}
	if wc.Actions != uc.Actions || wb.App.Completed != ub.App.Completed || wb.Eng.Steps() != ub.Eng.Steps() {
		t.Fatalf("runs diverged: actions %d/%d, completed %d/%d, steps %d/%d",
			wc.Actions, uc.Actions, wb.App.Completed, ub.App.Completed, wb.Eng.Steps(), ub.Eng.Steps())
	}
}

// trainSteps moves a's weights: n transitions of a fixed stream, one
// TrainStep after each.
func trainSteps(a *rl.Agent, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	cfg := a.Config()
	for i := 0; i < n; i++ {
		s, s2 := make([]float64, cfg.StateDim), make([]float64, cfg.StateDim)
		for j := range s {
			s[j], s2[j] = r.Float64(), r.Float64()
		}
		a.Observe(rl.Transition{S: s, A: a.ActExplore(s), R: r.Float64(), S2: s2})
		a.TrainStep()
	}
}

func mustSave(t *testing.T, a *rl.Agent) rl.Snapshot {
	t.Helper()
	snap, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameNets fails t unless a and b hold bit-identical networks, all four: the
// online pair through Save, the target pair through what it feeds. A copy
// of each (TransferFrom takes all four nets) trains on one fixed stream;
// every critic loss reads the target nets' outputs, and their soft updates
// carry them into the weights saved at the end.
func sameNets(t *testing.T, what string, a, b *rl.Agent) {
	t.Helper()
	sa, sb := mustSave(t, a), mustSave(t, b)
	if !bytes.Equal(sa.Actor, sb.Actor) || !bytes.Equal(sa.Critic, sb.Critic) {
		t.Fatalf("%s: actor or critic differs", what)
	}
	cfg := rl.DefaultConfig()
	cfg.Seed = 61
	x, y := rl.New(cfg), rl.New(cfg)
	if err := x.TransferFrom(a); err != nil {
		t.Fatal(err)
	}
	if err := y.TransferFrom(b); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(62))
	for i := 0; i < 2*cfg.BatchSize; i++ {
		tr := rl.Transition{S: make([]float64, cfg.StateDim), A: make([]float64, cfg.ActionDim), R: r.Float64(),
			S2: make([]float64, cfg.StateDim)}
		for j := range tr.S {
			tr.S[j], tr.S2[j] = r.Float64(), r.Float64()
		}
		for j := range tr.A {
			tr.A[j] = 2*r.Float64() - 1
		}
		x.Observe(tr)
		y.Observe(tr)
	}
	for i := 0; i < 4; i++ {
		lx, _ := x.TrainStep()
		ly, _ := y.TrainStep()
		if math.Float64bits(lx) != math.Float64bits(ly) {
			t.Fatalf("%s: target nets differ (critic loss %v vs %v at step %d)", what, lx, ly, i)
		}
	}
	sx, sy := mustSave(t, x), mustSave(t, y)
	if !bytes.Equal(sx.Actor, sy.Actor) || !bytes.Equal(sx.Critic, sy.Critic) {
		t.Fatalf("%s: target nets differ (trained copies diverge)", what)
	}
}

// pretrain behaviour-clones two demonstrations into a: an Init that moves
// the actor.
func pretrain(t *testing.T, a *rl.Agent) {
	s := [][]float64{{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, {0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}}
	if err := a.PretrainActor(s, [][]float64{{1, 0, 0, 0, 1}, {0, 1, 1, 0, 0}}, 3, 1e-2, 1); err != nil {
		t.Error(err)
	}
}

// TestFreshPolicyMatchesDirectInit: an agent a per-service table builds
// through its init memo holds, in all four nets, what init leaves on a new
// agent with the service's seed — on the learner and on a replica.
func TestFreshPolicyMatchesDirectInit(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 12
	learner := core.PerService(cfg, nil, func(a *rl.Agent) { pretrain(t, a) })
	rcfg := cfg
	rcfg.Seed = sim.DeriveSeed(cfg.Seed, "svc-a")
	ref := rl.New(rcfg)
	pretrain(t, ref)
	sameNets(t, "replica", learner.Replica().AgentFor("svc-a"), ref)
	sameNets(t, "learner", learner.AgentFor("svc-a"), ref)
}

// policyTables builds a learner table of each §3.4 variant over cfg — and
// a per-service one whose agents an init clones — with the transferred one
// warm-starting from base.
func policyTables(t *testing.T, cfg rl.Config, base *rl.Agent) []struct {
	name string
	mk   func() *core.Policies
} {
	return []struct {
		name string
		mk   func() *core.Policies
	}{
		{"shared", func() *core.Policies { return core.Shared(rl.New(cfg)) }},
		{"per-service", func() *core.Policies { return core.PerService(cfg, nil, nil) }},
		{"transferred", func() *core.Policies { return core.PerService(cfg, base, nil) }},
		{"cloned", func() *core.Policies { return core.PerService(cfg, nil, func(a *rl.Agent) { pretrain(t, a) }) }},
	}
}

// actor returns a's serialized actor.
func actor(t *testing.T, a *rl.Agent) []byte {
	t.Helper()
	return mustSave(t, a).Actor
}

// TestPolicySyncCopiesActors: after Sync, every replica's actor for every
// service the learner holds is bit-equal to the learner's at the Sync, and
// the learner training on does not move it — on new replicas (round 0) and
// on warm ones that lack a service the learner gained since (round 1).
func TestPolicySyncCopiesActors(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 63
	cfg.ActorDelay = 0 // so training moves the actor
	base := rl.New(cfg)
	trainSteps(base, 80, 64)
	for _, c := range policyTables(t, cfg, base) {
		learner, untrained := c.mk(), c.mk()
		reps := []*core.Policies{learner.Replica(), learner.Replica()}
		services := []string{"svc-a", "svc-b"}
		for round := 0; round < 2; round++ {
			for _, svc := range services {
				learner.AgentFor(svc)
			}
			for i, a := range learner.Agents() {
				trainSteps(a, 70, int64(10*round+i))
			}
			want := make(map[string][]byte)
			for _, svc := range services {
				want[svc] = actor(t, learner.AgentFor(svc))
				if bytes.Equal(want[svc], actor(t, untrained.AgentFor(svc))) {
					t.Fatalf("%s round %d %s: vacuous, training left the actor as built", c.name, round, svc)
				}
			}
			learner.Sync(reps)
			for i, a := range learner.Agents() {
				trainSteps(a, 20, int64(10*round+i+5)) // the learner trains on; the replicas must not move
			}
			for r, rep := range reps {
				for _, svc := range services {
					if !bytes.Equal(actor(t, rep.AgentFor(svc)), want[svc]) {
						t.Fatalf("%s round %d replica %d %s: actor differs from the learner's at Sync", c.name, round, r, svc)
					}
				}
			}
			services = append(services, "svc-c")
		}
	}
}

// TestPolicySyncNewServiceBuiltAlike: a service the learner has not met
// when it syncs is built mid-round by two replicas, and later by the
// learner, with bit-identical actors — whichever replica, whatever episode.
func TestPolicySyncNewServiceBuiltAlike(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 12
	cfg.ActorDelay = 0 // so training moves the actor
	base := rl.New(cfg)
	trainSteps(base, 80, 13)
	for _, c := range policyTables(t, cfg, base) {
		learner := c.mk()
		trainSteps(learner.AgentFor("svc-a"), 70, 14)
		r1, r2 := learner.Replica(), learner.Replica()
		learner.Sync([]*core.Policies{r1, r2})
		r1.BeginEpisode(7)
		r2.BeginEpisode(8)
		got := actor(t, r1.AgentFor("svc-b"))
		if !bytes.Equal(got, actor(t, r2.AgentFor("svc-b"))) {
			t.Fatalf("%s: a new service's actor depends on the replica that builds it", c.name)
		}
		if !bytes.Equal(got, actor(t, learner.AgentFor("svc-b"))) {
			t.Fatalf("%s: a replica builds a new service's actor unlike the learner", c.name)
		}
	}
}

// TestPolicySyncBeginEpisode: BeginEpisode makes exploration a pure
// function of the episode seed, whatever the replica ran before — also for
// an agent created mid-episode, which explores as it does when it already
// exists at BeginEpisode.
func TestPolicySyncBeginEpisode(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 11
	base := rl.New(cfg)
	probe := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	for _, c := range policyTables(t, cfg, base) {
		learner := c.mk()
		learner.AgentFor("svc-a")
		r1, r2 := learner.Replica(), learner.Replica()
		learner.Sync([]*core.Policies{r1, r2})
		explore := func(r *core.Policies, svc string) []float64 { return r.AgentFor(svc).ActExplore(probe) }
		r1.BeginEpisode(99)
		first := explore(r1, "svc-a")
		for i := 0; i < 25; i++ {
			explore(r1, "svc-a")
		}
		r1.BeginEpisode(99)
		if !sameVec(first, explore(r1, "svc-a")) {
			t.Fatalf("%s: BeginEpisode must reset the exploration stream", c.name)
		}
		r1.BeginEpisode(100)
		if sameVec(first, explore(r1, "svc-a")) {
			t.Fatalf("%s: different episode seeds must explore differently", c.name)
		}
		r1.BeginEpisode(7)
		r2.BeginEpisode(7)
		mid := explore(r1, "svc-b") // created mid-episode on both replicas
		if !sameVec(mid, explore(r2, "svc-b")) {
			t.Fatalf("%s: an agent created mid-episode must explore from the episode seed", c.name)
		}
		r1.BeginEpisode(7)
		if !sameVec(mid, explore(r1, "svc-b")) {
			t.Fatalf("%s: an agent created mid-episode explores unlike one BeginEpisode reseeds", c.name)
		}
	}
}

// TestPolicySyncWarmRoundAllocFree: a warm round boundary — the learner's
// actors copied into two replicas that already hold every service —
// allocates nothing.
func TestPolicySyncWarmRoundAllocFree(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 65
	for _, c := range policyTables(t, cfg, rl.New(cfg)) {
		learner := c.mk()
		learner.AgentFor("svc-a")
		learner.AgentFor("svc-b")
		reps := []*core.Policies{learner.Replica(), learner.Replica()}
		learner.Sync(reps) // builds the replicas' agents
		if n := testing.AllocsPerRun(20, func() { learner.Sync(reps) }); n != 0 {
			t.Fatalf("%s: a warm Sync of two replicas allocates %v, want 0", c.name, n)
		}
	}
}
