package rollout

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"firm/internal/core"
	"firm/internal/rl"
	"firm/internal/runner"
	"firm/internal/sim"
)

// smallCfg keeps the networks tiny so determinism tests stay fast while
// still exercising real gradient steps (ActorDelay passes quickly).
func smallCfg(seed int64) rl.Config {
	cfg := rl.DefaultConfig()
	cfg.Hidden = 8
	cfg.BatchSize = 16
	cfg.ActorDelay = 5
	cfg.BufferCap = 2000
	cfg.Seed = seed
	return cfg
}

// syntheticEpisode is a cheap deterministic environment: state drifts under
// the action, reward prefers small actions. Everything derives from the
// episode index, so a trajectory is a pure function of (weights, episode).
func syntheticEpisode(services func(ep, step int) string) func(int, int, core.AgentProvider, core.TransitionSink) (float64, error) {
	return func(ep, _ int, prov core.AgentProvider, sink core.TransitionSink) (float64, error) {
		r := rand.New(rand.NewSource(sim.DeriveSeed(555, fmt.Sprintf("env/ep%d", ep))))
		state := make([]float64, 8)
		for i := range state {
			state[i] = r.Float64()
		}
		var total float64
		const steps = 30
		for step := 0; step < steps; step++ {
			svc := services(ep, step)
			ag := prov.AgentFor(svc)
			act := ag.ActExplore(state)
			var reward float64
			for _, a := range act {
				reward -= a * a
			}
			next := make([]float64, len(state))
			for i := range next {
				next[i] = 0.9*state[i] + 0.1*act[i%len(act)] + 0.02*r.Float64()
			}
			sink(svc, rl.Transition{S: state, A: act, R: reward, S2: next, Done: step == steps-1})
			total += reward
			state = next
		}
		return total, nil
	}
}

// trainOnce runs a full campaign and returns (rewards, final policy probe).
func trainOnce(t *testing.T, workers int, mkLearner func() core.ReplicableProvider,
	services func(ep, step int) string) ([]float64, map[string][]float64) {
	t.Helper()
	learner := mkLearner()
	rewards, err := Run(Options{
		Episodes:   10,
		Workers:    workers,
		SyncEvery:  4, // 3 rounds: 4+4+2 — exercises multi-round syncing
		Seed:       42,
		Key:        "test",
		Learner:    learner,
		RunEpisode: syntheticEpisode(services),
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2, 0.8, 0.1, -0.6, 0.4, 0.9, -0.3}
	acts := map[string][]float64{}
	for _, svc := range []string{"svc-a", "svc-b"} {
		acts[svc] = learner.AgentFor(svc).Act(probe)
	}
	return rewards, acts
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

func assertIdenticalAcrossWorkers(t *testing.T, mkLearner func() core.ReplicableProvider,
	services func(ep, step int) string) {
	t.Helper()
	refRewards, refActs := trainOnce(t, 1, mkLearner, services)
	if len(refRewards) != 10 {
		t.Fatalf("want 10 rewards, got %d", len(refRewards))
	}
	for _, w := range []int{2, 3, 8} {
		rewards, acts := trainOnce(t, w, mkLearner, services)
		if !sameVec(refRewards, rewards) {
			t.Fatalf("workers=%d: episode rewards differ\n1: %v\n%d: %v", w, refRewards, w, rewards)
		}
		for svc := range refActs {
			if !sameVec(refActs[svc], acts[svc]) {
				t.Fatalf("workers=%d: trained policy for %s differs", w, svc)
			}
		}
	}
}

func TestSharedLearnerByteIdenticalAcrossWorkers(t *testing.T) {
	assertIdenticalAcrossWorkers(t,
		func() core.ReplicableProvider { return core.SharedAgent{A: rl.New(smallCfg(1))} },
		func(ep, step int) string { return "svc-a" })
}

func TestPerServiceLearnerByteIdenticalAcrossWorkers(t *testing.T) {
	// svc-b first appears mid-campaign (episode 3), exercising lazy replica
	// construction inside a round.
	assertIdenticalAcrossWorkers(t,
		func() core.ReplicableProvider { return &core.PerServiceAgents{Cfg: smallCfg(2)} },
		func(ep, step int) string {
			if ep >= 3 && step%2 == 1 {
				return "svc-b"
			}
			return "svc-a"
		})
}

func TestTransferredLearnerByteIdenticalAcrossWorkers(t *testing.T) {
	base := rl.New(smallCfg(3))
	assertIdenticalAcrossWorkers(t,
		func() core.ReplicableProvider { return &core.PerServiceAgents{Cfg: smallCfg(4), Base: base} },
		func(ep, step int) string { return fmt.Sprintf("svc-%c", 'a'+byte(ep%2)) })
}

func TestLearnerActuallyTrains(t *testing.T) {
	learner := core.SharedAgent{A: rl.New(smallCfg(5))}
	if _, err := Run(Options{
		Episodes: 6, Workers: 2, SyncEvery: 2, Seed: 9, Key: "train-check",
		Learner:    learner,
		RunEpisode: syntheticEpisode(func(int, int) string { return "svc" }),
	}); err != nil {
		t.Fatal(err)
	}
	if learner.A.Updates == 0 {
		t.Fatal("learner never stepped gradients")
	}
	if learner.A.Buffer().Len() == 0 {
		t.Fatal("learner buffer never filled")
	}
}

func TestAfterEpisodeRunsInOrder(t *testing.T) {
	var seen []int
	_, err := Run(Options{
		Episodes: 7, Workers: 4, SyncEvery: 3, Seed: 1, Key: "order",
		Learner:    core.SharedAgent{A: rl.New(smallCfg(6))},
		RunEpisode: syntheticEpisode(func(int, int) string { return "svc" }),
		AfterEpisode: func(ep int, reward float64) error {
			seen = append(seen, ep)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ep := range seen {
		if ep != i {
			t.Fatalf("AfterEpisode order: %v", seen)
		}
	}
	if len(seen) != 7 {
		t.Fatalf("AfterEpisode ran %d times", len(seen))
	}
}

func TestEpisodeErrorIsDeterministic(t *testing.T) {
	for _, w := range []int{1, 4} {
		_, err := Run(Options{
			Episodes: 8, Workers: w, SyncEvery: 4, Seed: 1, Key: "err",
			Learner: core.SharedAgent{A: rl.New(smallCfg(7))},
			RunEpisode: func(ep, w int, prov core.AgentProvider, sink core.TransitionSink) (float64, error) {
				if ep >= 5 {
					return 0, fmt.Errorf("boom-%d", ep)
				}
				return syntheticEpisode(func(int, int) string { return "svc" })(ep, w, prov, sink)
			},
		})
		// Episodes 5, 6, 7 all fail; the reported failure must be the first
		// in episode order regardless of scheduling.
		if err == nil || !strings.Contains(err.Error(), "episode 5") || !strings.Contains(err.Error(), "boom-5") {
			t.Fatalf("workers=%d: want deterministic episode-5 failure, got %v", w, err)
		}
	}
}

func TestBudgetSharingWithRunner(t *testing.T) {
	pool := runner.NewPool(5)
	claimed := pool.AcquireUpTo(3) // simulate three busy campaign jobs
	if claimed != 3 {
		t.Fatalf("setup: claimed %d", claimed)
	}
	// Run an unpinned rollout: it may borrow at most the 2 spare slots (and
	// must release them afterwards).
	_, err := Run(Options{
		Episodes: 4, SyncEvery: 4, Seed: 3, Key: "budget", Pool: pool,
		Learner:    core.SharedAgent{A: rl.New(smallCfg(8))},
		RunEpisode: syntheticEpisode(func(int, int) string { return "svc" }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.AcquireUpTo(5); got != 2 {
		t.Fatalf("rollout leaked budget slots: %d spare, want 2", got)
	}
}

// RunEpisode's slot index names what one goroutine at a time owns: it is
// below the round width, always comes with that slot's policy replica, and
// no two episodes run on one slot at once — pinned or borrowing from a pool.
// The plain per-slot counter lets the race detector see a shared slot too.
func TestSlotOwnedByOneGoroutine(t *testing.T) {
	const syncEvery = 4
	for _, tc := range []struct {
		workers int
		pool    *runner.Pool
	}{{1, nil}, {3, nil}, {8, nil}, {0, runner.NewPool(8)}} {
		var (
			mu    sync.Mutex
			owner = map[int]core.AgentProvider{}
			busy  [syncEvery]atomic.Bool
			runs  [syncEvery]int
		)
		_, err := Run(Options{
			Episodes: 10, Workers: tc.workers, Pool: tc.pool, SyncEvery: syncEvery, Seed: 4, Key: "slots",
			Learner: core.SharedAgent{A: rl.New(smallCfg(10))},
			RunEpisode: func(ep, w int, prov core.AgentProvider, sink core.TransitionSink) (float64, error) {
				if w < 0 || w >= syncEvery {
					return 0, fmt.Errorf("slot %d outside the round width %d", w, syncEvery)
				}
				if !busy[w].CompareAndSwap(false, true) {
					return 0, fmt.Errorf("episode %d entered slot %d while another ran on it", ep, w)
				}
				defer busy[w].Store(false)
				runs[w]++
				mu.Lock()
				for v, p := range owner {
					if (v == w) != (p == prov) {
						mu.Unlock()
						return 0, fmt.Errorf("slot %d got slot %d's replica, or a new one", w, v)
					}
				}
				owner[w] = prov
				mu.Unlock()
				return syntheticEpisode(func(int, int) string { return "svc" })(ep, w, prov, sink)
			},
		})
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		total := 0
		for _, n := range runs {
			total += n
		}
		if total != 10 {
			t.Fatalf("workers %d: slots ran %d episodes, want 10", tc.workers, total)
		}
	}
}

func TestExplicitWorkersAreCappedAtRoundWidth(t *testing.T) {
	// Workers beyond SyncEvery or Episodes cannot change results (they would
	// idle); this simply asserts Run tolerates absurd values.
	rewards, err := Run(Options{
		Episodes: 2, Workers: 64, SyncEvery: 4, Seed: 2, Key: "cap",
		Learner:    core.SharedAgent{A: rl.New(smallCfg(9))},
		RunEpisode: syntheticEpisode(func(int, int) string { return "svc" }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rewards) != 2 {
		t.Fatalf("got %d rewards", len(rewards))
	}
}

func TestSyncEveryShapesTraining(t *testing.T) {
	// Round width sets policy staleness: with a fast ActorDelay the acting
	// policy moves between rounds, so SyncEvery=1 (sync after every
	// episode) and SyncEvery=4 must diverge — which is exactly why
	// SyncEvery is experiment configuration while worker count is not.
	train := func(syncEvery int) []float64 {
		rewards, err := Run(Options{
			Episodes: 8, Workers: 1, SyncEvery: syncEvery, Seed: 5, Key: "stale",
			Learner:    core.SharedAgent{A: rl.New(smallCfg(12))},
			RunEpisode: syntheticEpisode(func(int, int) string { return "svc" }),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rewards
	}
	if sameVec(train(1), train(4)) {
		t.Fatal("SyncEvery must alter training dynamics once the actor updates")
	}
}

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(Options{Episodes: 1, RunEpisode: nil,
		Learner: core.SharedAgent{A: rl.New(smallCfg(10))}}); err == nil {
		t.Fatal("nil RunEpisode must error")
	}
	if _, err := Run(Options{Episodes: 1,
		RunEpisode: syntheticEpisode(func(int, int) string { return "s" })}); err == nil {
		t.Fatal("nil Learner must error")
	}
	rewards, err := Run(Options{Episodes: 0,
		Learner:    core.SharedAgent{A: rl.New(smallCfg(11))},
		RunEpisode: syntheticEpisode(func(int, int) string { return "s" })})
	if err != nil || rewards != nil {
		t.Fatalf("zero episodes: %v, %v", rewards, err)
	}
}
