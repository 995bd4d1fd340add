// Package runner fans independent simulation jobs across a worker pool.
//
// FIRM's evaluation is a campaign of independent simulations — policy
// comparisons, seed repetitions, per-anomaly sweeps, RL training variants.
// Each simulation owns a private single-threaded sim.Engine and is
// bit-reproducible under a fixed seed, so campaigns parallelize perfectly:
// the only requirements are that every job gets a seed derived from the
// campaign seed and a stable job key (never from execution order), and that
// results are merged in declaration order. Under those two rules the output
// of a campaign is byte-identical at any worker count, which the experiment
// CLI exposes as `firmbench -parallel N`.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"firm/internal/sim"
)

// Job is one independent simulation of a campaign. Key must be unique
// within the campaign and stable across runs and code motion: together
// with the campaign seed it determines the seed passed to Run. Jobs whose
// experiment protocol pairs several simulations on one seed (e.g. the two
// strategy arms of a Fig. 5 repetition, or training variants compared on
// the same anomaly sequence) may ignore the passed seed and derive a
// shared one from a pair key instead — what matters for reproducibility is
// that no job's seed ever depends on execution order.
type Job[T any] struct {
	Key string
	// Run executes the simulation with the job's derived seed. It must not
	// share mutable state with any other job in the same Map call; shared
	// read-only inputs (trained weights, topology specs) are fine.
	Run func(seed int64) (T, error)
}

// Event reports one finished job to the progress hook.
type Event struct {
	Key  string
	Done int // jobs finished so far, including this one
	N    int // total jobs in this Map call
	Err  error
}

// Pool is a campaign's execution budget: how many simulations may run at
// once, shared between campaign jobs (Map) and the inner parallelism those
// jobs borrow for — episode-rollout actors (internal/rollout) and sharded-
// engine window workers (internal/harness). It is a value its owner builds
// and hands down, so two campaigns in one process never see each other's
// settings. A nil *Pool is valid everywhere and means one worker with
// nothing to lend. Pool size never affects results — every parallelized
// unit is byte-deterministic at any worker count.
type Pool struct {
	// Progress, when non-nil, is invoked (serialized, in completion order)
	// as jobs finish. Progress order is scheduling-dependent; anything that
	// must be deterministic belongs in Map's results. Set it before the
	// pool is used.
	Progress func(Event)

	workers int

	// Execution slots in use are accounted in two separate ledgers: slots
	// occupied by running Map jobs and slots loaned out via AcquireUpTo.
	// Keeping them apart means a buggy over-release of loans can never eat
	// into the accounting of jobs that are still running (which would let
	// AcquireUpTo oversubscribe the pool).
	mu      sync.Mutex
	running int
	loaned  int
}

// NewPool returns a pool of n workers; n <= 0 means GOMAXPROCS.
// cmd/firmbench builds one from its -parallel flag.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers returns the pool size (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// AcquireUpTo claims up to n spare execution slots and returns how many
// were claimed (possibly 0; never blocks): a rollout running while the job
// pool is saturated degrades to its caller's goroutine alone, and a lone
// heavy job gets the whole pool for its rollouts. Claims must be returned
// with ReleaseSlots.
func (p *Pool) AcquireUpTo(n int) int {
	if p == nil || n <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	spare := p.workers - p.running - p.loaned
	if n > spare {
		n = spare
	}
	if n < 0 {
		n = 0
	}
	p.loaned += n
	return n
}

// ReleaseSlots returns slots claimed with AcquireUpTo. Releasing more than
// is currently on loan returns only the outstanding loans: the job ledger
// is untouched, so a double release cannot inflate the spare budget while
// jobs are still running.
func (p *Pool) ReleaseSlots(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	if n > p.loaned {
		n = p.loaned
	}
	p.loaned -= n
	p.mu.Unlock()
}

// jobRunning accounts one executing job in the slot budget.
func (p *Pool) jobRunning(delta int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.running += delta
	p.mu.Unlock()
}

func (p *Pool) report(ev Event) {
	if p != nil && p.Progress != nil {
		p.Progress(ev)
	}
}

// Map runs every job on the pool's workers and returns their results in
// job order. Each job's seed is sim.DeriveSeed(campaignSeed, job.Key), so
// results do not depend on worker count or completion order. After the
// first failure, not-yet-started jobs are skipped (already-running ones
// finish); the error returned is the first in job order among the jobs
// that ran. Results are only meaningful when the error is nil.
func Map[T any](p *Pool, campaignSeed int64, jobs []Job[T]) ([]T, error) {
	nWorkers := p.Workers()
	if nWorkers > len(jobs) {
		nWorkers = len(jobs)
	}
	if err := Check(jobs); err != nil {
		return nil, err
	}
	results := make([]T, len(jobs))
	errs := make([]error, len(jobs))

	// runJob executes one job inside the slot ledger; the deferred release
	// means a job that fails (or panics clear through Map) can never leak
	// its execution slot and starve later campaigns of budget.
	runJob := func(i int) {
		p.jobRunning(1)
		defer p.jobRunning(-1)
		results[i], errs[i] = jobs[i].Run(sim.DeriveSeed(campaignSeed, jobs[i].Key))
	}

	var failed atomic.Bool

	if nWorkers <= 1 {
		// Inline fast path: no goroutines, same semantics.
		for i, j := range jobs {
			runJob(i)
			p.report(Event{Key: j.Key, Done: i + 1, N: len(jobs), Err: errs[i]})
			if errs[i] != nil {
				break
			}
		}
		return results, firstErr(errs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	var done int
	var doneMu sync.Mutex
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue // fail-fast: drain without running
				}
				j := jobs[i]
				runJob(i)
				if errs[i] != nil {
					failed.Store(true)
				}
				doneMu.Lock()
				done++
				p.report(Event{Key: j.Key, Done: done, N: len(jobs), Err: errs[i]})
				doneMu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, firstErr(errs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Check rejects a job list Map could not run as declared: a job without a
// Run, or two jobs with one key (they would share a seed, and a dispatcher
// that finds jobs by key would run the first twice).
func Check[T any](jobs []Job[T]) error {
	seen := make(map[string]struct{}, len(jobs))
	for _, j := range jobs {
		if j.Run == nil {
			return fmt.Errorf("runner: job %q has nil Run", j.Key)
		}
		if _, dup := seen[j.Key]; dup {
			return fmt.Errorf("runner: duplicate job key %q", j.Key)
		}
		seen[j.Key] = struct{}{}
	}
	return nil
}

// Key builds a stable job key from path segments ("fig5", bench, "cpu",
// "250rps", "up", "rep0" → "fig5/social-network/cpu/250rps/up/rep0").
func Key(parts ...any) string {
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(p)
	}
	return s
}
