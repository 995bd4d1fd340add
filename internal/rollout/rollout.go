// Package rollout parallelizes RL episode rollouts without giving up
// bit-reproducibility — the A3C/Gorila actor-learner decomposition applied
// to FIRM's DDPG training campaigns.
//
// K actor workers each hold a cheap policy replica (weight snapshots loaded
// via rl.Agent.Save/Load through core.ReplicaProvider). Episodes are
// processed in rounds of SyncEvery: at a round boundary the learner's
// current weights are snapshotted, the round's episodes run concurrently on
// the workers — each seeded by sim.DeriveSeed(campaignSeed, episodeKey), so
// an episode's trajectory is a pure function of the round snapshot and its
// episode key — and their transition streams are buffered. A single learner
// (the calling goroutine) replays the streams in episode order, applying
// replay-buffer writes and TrainStep gradients exactly as the online
// controller would have. Trained weights — and therefore firmbench stdout —
// are byte-identical at any worker count; only wall-clock changes.
//
// Rounds are double-buffered: the learner replays episode i as soon as it
// completes, concurrently with actors still rolling out later episodes of
// the same round. This is sound because actors act on private replicas of
// the round snapshot — learner weight updates cannot leak into in-flight
// trajectories — and the replay itself stays strictly sequential in
// episode order. The only barrier is snapshot publication: round r+1's
// snapshot is not taken until every episode of round r has been replayed,
// so policy staleness (and every trained byte) is what a strict
// end-of-round barrier would produce.
//
// The semantic difference from fully-online training is the classic A3C
// trade: within a round, actors follow a policy up to SyncEvery-1 episodes
// stale. Determinism is preserved because staleness depends only on episode
// index, never on scheduling.
//
// Worker budget: an explicit Workers count is honored as-is (tests and
// benchmarks pin 1, 2, 8 against each other); Workers <= 0 borrows spare
// slots from Options.Pool, the campaign's runner.Pool, so outer job
// parallelism and inner rollout parallelism share one budget.
package rollout

import (
	"fmt"
	"sync"

	"firm/internal/core"
	"firm/internal/rl"
	"firm/internal/runner"
	"firm/internal/sim"
)

// DefaultSyncEvery is the episodes-per-round barrier width when Options
// leaves SyncEvery unset. It is a fixed constant on purpose: round layout
// shapes the trained weights, so it must never be derived from worker
// count or machine shape.
const DefaultSyncEvery = 8

// Options configures one rollout campaign.
type Options struct {
	// Episodes is the total episode count.
	Episodes int
	// Workers is the actor worker count. > 0 is honored exactly (capped at
	// the round width, beyond which workers would idle); <= 0 borrows from
	// Pool. Worker count NEVER affects results.
	Workers int
	// Pool is the budget unpinned campaigns borrow actors from: each round
	// claims its spare slots and returns them at the round's end. With a
	// nil pool (and no pin) the campaign runs one actor.
	Pool *runner.Pool
	// SyncEvery is the round width: how many episodes run against one
	// learner snapshot before the gradient barrier. <= 0 uses
	// DefaultSyncEvery. Unlike Workers, SyncEvery DOES shape the trained
	// weights (it sets policy staleness), so it must be configuration,
	// never inferred from the machine.
	SyncEvery int
	// Seed is the campaign seed episode seeds derive from.
	Seed int64
	// Key is the stable campaign key prefix; episode ep's seed is
	// sim.DeriveSeed(Seed, Key+"/ep<ep>").
	Key string
	// Learner owns the canonical weights: snapshotted at round boundaries,
	// trained in episode order behind the barrier.
	Learner core.ReplicableProvider
	// RunEpisode executes environment episode ep on worker slot w, acting
	// through prov and emitting every finalized transition to sink in order
	// (wire sink into core.Config.Sink). It runs on a worker goroutine: it
	// must not touch state shared with other episodes except read-only
	// inputs and what slot w owns. Slot w is the one whose policy replica
	// prov is, 0 <= w < the round width; one goroutine at a time runs on a
	// slot, and a slot's episodes run one after another — so an episode may
	// reuse what the slot's previous episode built. The returned reward is
	// the episode's training reward.
	RunEpisode func(ep, w int, prov core.AgentProvider, sink core.TransitionSink) (float64, error)
	// AfterEpisode, when non-nil, runs on the learner goroutine after
	// episode ep's transitions have been applied — strictly in episode
	// order (checkpointing, reward bookkeeping).
	AfterEpisode func(ep int, reward float64) error
}

// obs is one collected transition, tagged with its emitting service.
type obs struct {
	service string
	t       rl.Transition
}

// epOut is one episode's buffered outcome.
type epOut struct {
	reward float64
	obs    []obs
	err    error
}

// Run executes the campaign and returns per-episode rewards in episode
// order. On episode failure it returns the first error in episode order
// (deterministic at any worker count); the learner keeps the updates from
// every episode before the failing one.
func Run(opts Options) ([]float64, error) {
	if opts.Learner == nil {
		return nil, fmt.Errorf("rollout: Learner is required")
	}
	if opts.RunEpisode == nil {
		return nil, fmt.Errorf("rollout: RunEpisode is required")
	}
	if opts.Episodes <= 0 {
		return nil, nil
	}
	syncEvery := opts.SyncEvery
	if syncEvery <= 0 {
		syncEvery = DefaultSyncEvery
	}

	// Persistent replicas, one per worker slot, grown to the widest round
	// and synced at round boundaries.
	var replicas []core.ReplicaProvider

	rewards := make([]float64, 0, opts.Episodes)
	outs := make([]epOut, syncEvery)
	ready := make([]bool, syncEvery)
	for r0 := 0; r0 < opts.Episodes; r0 += syncEvery {
		n := syncEvery
		if rest := opts.Episodes - r0; n > rest {
			n = rest
		}
		nw := opts.Workers
		borrowed := 0
		if nw <= 0 {
			// Budget mode: the calling goroutine is one actor for free;
			// extra actors run only on slots the job pool leaves spare
			// right now, returned when the round ends.
			borrowed = opts.Pool.AcquireUpTo(n - 1)
			nw = 1 + borrowed
		}
		if nw > n {
			nw = n // extra workers would idle within this round
		}
		for len(replicas) < nw {
			replicas = append(replicas, opts.Learner.NewReplica())
		}
		snaps, err := opts.Learner.SnapshotPolicies()
		if err != nil {
			opts.Pool.ReleaseSlots(borrowed)
			return nil, fmt.Errorf("rollout: snapshot before episode %d: %w", r0, err)
		}
		for i := 0; i < nw; i++ {
			if err := replicas[i].SyncPolicies(snaps); err != nil {
				opts.Pool.ReleaseSlots(borrowed)
				return nil, fmt.Errorf("rollout: sync before episode %d: %w", r0, err)
			}
		}

		runOne := func(w, i int) {
			ep := r0 + i
			rep := replicas[w]
			rep.BeginEpisode(sim.DeriveSeed(opts.Seed, fmt.Sprintf("%s/ep%d", opts.Key, ep)))
			// Round slot i's buffer from the last round: applied before this
			// round began, so its storage is free to take the new stream.
			collected := outs[i].obs[:0]
			sink := func(service string, t rl.Transition) {
				collected = append(collected, obs{service: service, t: t})
			}
			reward, err := opts.RunEpisode(ep, w, rep, sink)
			outs[i] = epOut{reward: reward, obs: collected, err: err}
		}

		// apply replays episode i's transition stream into the learner,
		// exactly as the online controller would have observed and trained
		// on it. Learner-side errors (episode failure, AfterEpisode) are
		// returned, not applied past.
		apply := func(i int) error {
			if outs[i].err != nil {
				return fmt.Errorf("rollout: episode %d: %w", r0+i, outs[i].err)
			}
			for _, o := range outs[i].obs {
				ag := opts.Learner.AgentFor(o.service)
				ag.Observe(o.t)
				ag.TrainStep()
			}
			rewards = append(rewards, outs[i].reward)
			if opts.AfterEpisode != nil {
				if err := opts.AfterEpisode(r0+i, outs[i].reward); err != nil {
					return err
				}
			}
			return nil
		}

		// Double-buffered round: actors stream per-episode completions and
		// the calling goroutine replays them in episode order while later
		// episodes of the same round are still rolling out. Even nw=1
		// overlaps: the single actor produces episode i+1 while the learner
		// trains on episode i. The happens-before chain for outs[i] is the
		// completion send; replay order is enforced by the ready/next
		// cursor, so scheduling never reorders a gradient.
		idx := make(chan int)
		completed := make(chan int, n)
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runOne(w, i)
					completed <- i
				}
			}()
		}
		go func() {
			for i := 0; i < n; i++ {
				idx <- i
			}
			close(idx)
			wg.Wait()
			close(completed)
		}()

		for i := 0; i < n; i++ {
			ready[i] = false
		}
		next := 0
		var firstErr error
		for i := range completed {
			ready[i] = true
			for next < n && ready[next] {
				if firstErr == nil {
					// Stop applying at the first error in episode order; keep
					// draining so workers exit and outs is quiescent before
					// the round (or Run) ends.
					firstErr = apply(next)
				}
				next++
			}
		}
		opts.Pool.ReleaseSlots(borrowed)
		if firstErr != nil {
			return nil, firstErr
		}
		// Falling through to the next iteration publishes the next snapshot
		// — the one remaining barrier: it happens only after every episode
		// above has been replayed.
	}
	return rewards, nil
}
