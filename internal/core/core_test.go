package core_test

import (
	"fmt"
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
	p := harness.PerServiceAgents(2, base)
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

func TestSharedAgentReplicaMirrorsPolicy(t *testing.T) {
	cfg := rl.DefaultConfig()
	cfg.Seed = 11
	learner := core.SharedAgent{A: rl.New(cfg)}
	snaps, err := learner.SnapshotPolicies()
	if err != nil {
		t.Fatal(err)
	}
	rep := learner.NewReplica()
	if err := rep.SyncPolicies(snaps); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	if !sameVec(learner.AgentFor("any").Act(probe), rep.AgentFor("any").Act(probe)) {
		t.Fatal("synced replica must mirror the learner policy bit-for-bit")
	}
	// Exploration is a pure function of the episode seed, regardless of
	// what the replica ran before.
	rep.BeginEpisode(99)
	first := rep.AgentFor("any").ActExplore(probe)
	for i := 0; i < 25; i++ {
		rep.AgentFor("any").ActExplore(probe)
	}
	rep.BeginEpisode(99)
	if !sameVec(first, rep.AgentFor("any").ActExplore(probe)) {
		t.Fatal("BeginEpisode must reset the exploration stream")
	}
	rep.BeginEpisode(100)
	if sameVec(first, rep.AgentFor("any").ActExplore(probe)) {
		t.Fatal("different episode seeds must explore differently")
	}
}

func TestPerServiceReplicaLazyConstructionIsDeterministic(t *testing.T) {
	mk := func() *core.PerServiceAgents {
		cfg := rl.DefaultConfig()
		cfg.Seed = 12
		return &core.PerServiceAgents{Cfg: cfg}
	}
	learner := mk()
	learner.AgentFor("svc-a") // materialized before the snapshot
	snaps, err := learner.SnapshotPolicies()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := snaps["svc-a"]; !ok || len(snaps) != 1 {
		t.Fatalf("snapshot keys: %v", snaps)
	}
	r1 := learner.NewReplica()
	r2 := learner.NewReplica()
	for _, r := range []core.ReplicaProvider{r1, r2} {
		if err := r.SyncPolicies(snaps); err != nil {
			t.Fatal(err)
		}
		r.BeginEpisode(7)
	}
	probe := []float64{0.4, -0.1, 0.9, 0.2, -0.7, 0.5, 0.3, 0.8}
	if !sameVec(learner.AgentFor("svc-a").Act(probe), r1.AgentFor("svc-a").Act(probe)) {
		t.Fatal("snapshotted service must load learner weights")
	}
	// svc-b is unknown to the learner: both replicas must construct it
	// through the learner's creation path and agree bit-for-bit with each
	// other AND with the learner's own later lazy construction.
	b1 := r1.AgentFor("svc-b").Act(probe)
	if !sameVec(b1, r2.AgentFor("svc-b").Act(probe)) {
		t.Fatal("fresh construction must not depend on the replica instance")
	}
	if !sameVec(b1, learner.AgentFor("svc-b").Act(probe)) {
		t.Fatal("replica fresh construction must match the learner's")
	}
	// Same episode seed → same exploration on both replicas for svc-b even
	// though it was materialized mid-episode.
	if !sameVec(r1.AgentFor("svc-b").ActExplore(probe), r2.AgentFor("svc-b").ActExplore(probe)) {
		t.Fatal("mid-episode construction must reseed from the episode seed")
	}
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
	learner := &core.PerServiceAgents{Cfg: cfg, Init: func(a *rl.Agent) {
		mu.Lock()
		inits[a.Config().Seed]++
		mu.Unlock()
		s := [][]float64{{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}, {0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1}}
		if err := a.PretrainActor(s, [][]float64{{1, 0, 0, 0, 1}, {0, 1, 1, 0, 0}}, 3, 1e-2, 1); err != nil {
			t.Error(err)
		}
	}}
	probe := []float64{0.4, -0.1, 0.9, 0.2, -0.7, 0.5, 0.3, 0.8}
	acts := make([][][]float64, replicas)
	var wg sync.WaitGroup
	for r := 0; r < replicas; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := learner.NewReplica()
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
	learner := &core.PerServiceAgents{Cfg: cfg, Init: func(*rl.Agent) {
		started <- struct{}{}
		select {
		case <-both:
		case <-time.After(10 * time.Second):
			t.Error("a second service's Init never started while the first was running")
		}
	}}
	var wg sync.WaitGroup
	for _, svc := range []string{"svc-a", "svc-b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			learner.NewReplica().AgentFor(svc)
		}()
	}
	wg.Wait()
}
