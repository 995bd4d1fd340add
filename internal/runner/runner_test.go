package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// jitteryJobs build results from the job seed only, with scheduling noise so
// completion order differs from declaration order under parallelism.
func jitteryJobs(n int) []Job[string] {
	jobs := make([]Job[string], n)
	for i := 0; i < n; i++ {
		key := Key("job", i)
		jobs[i] = Job[string]{Key: key, Run: func(seed int64) (string, error) {
			r := rand.New(rand.NewSource(seed))
			time.Sleep(time.Duration(r.Intn(3)) * time.Millisecond)
			return fmt.Sprintf("%s:%d", key, r.Int63()), nil
		}}
	}
	return jobs
}

func TestMapNResultsIndependentOfWorkerCount(t *testing.T) {
	jobs := jitteryJobs(24)
	ref, err := Map(NewPool(1), 42, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 100} {
		got, err := Map(NewPool(workers), 42, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: results differ from sequential run", workers)
		}
	}
}

func TestMapNResultOrderMatchesJobOrder(t *testing.T) {
	jobs := jitteryJobs(16)
	got, err := Map(NewPool(4), 7, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		want := Key("job", i) + ":"
		if len(s) < len(want) || s[:len(want)] != want {
			t.Fatalf("slot %d holds %q", i, s)
		}
	}
}

func TestMapNSeedsDifferPerKey(t *testing.T) {
	var mu sync.Mutex
	seeds := map[int64]bool{}
	jobs := make([]Job[int], 32)
	for i := range jobs {
		jobs[i] = Job[int]{Key: Key("k", i), Run: func(seed int64) (int, error) {
			mu.Lock()
			seeds[seed] = true
			mu.Unlock()
			return 0, nil
		}}
	}
	if _, err := Map(NewPool(4), 1, jobs); err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(jobs) {
		t.Fatalf("expected %d distinct job seeds, got %d", len(jobs), len(seeds))
	}
}

func TestMapNErrorReporting(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	var ran atomic.Int32
	jobs := []Job[int]{
		{Key: "ok", Run: func(int64) (int, error) { ran.Add(1); return 1, nil }},
		{Key: "slow-fail", Run: func(int64) (int, error) {
			ran.Add(1)
			time.Sleep(5 * time.Millisecond)
			return 0, errA
		}},
		{Key: "fast-fail", Run: func(int64) (int, error) { ran.Add(1); return 0, errB }},
		{Key: "late", Run: func(int64) (int, error) { ran.Add(1); return 2, nil }},
	}
	// Sequential: jobs after the first failure are skipped, and the error
	// is deterministic (first in job order).
	ran.Store(0)
	if _, err := Map(NewPool(1), 0, jobs); !errors.Is(err, errA) {
		t.Fatalf("workers=1: want %v, got %v", errA, err)
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("workers=1: fail-fast should skip jobs after the failure, ran %d", got)
	}
	// Parallel: some failing job's error is returned (which one depends on
	// completion order — errors abort the campaign either way).
	if _, err := Map(NewPool(3), 0, jobs); !errors.Is(err, errA) && !errors.Is(err, errB) {
		t.Fatalf("workers=3: want a job error, got %v", err)
	}
}

func TestMapNRejectsDuplicateKeys(t *testing.T) {
	jobs := []Job[int]{
		{Key: "x", Run: func(int64) (int, error) { return 0, nil }},
		{Key: "x", Run: func(int64) (int, error) { return 0, nil }},
	}
	if _, err := Map(NewPool(2), 0, jobs); err == nil {
		t.Fatal("duplicate keys must be rejected: they would share a seed")
	}
}

func TestProgressReportsEveryJob(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	pool := NewPool(4)
	pool.Progress = func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	jobs := jitteryJobs(10)
	if _, err := Map(pool, 3, jobs); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(jobs) {
		t.Fatalf("got %d events for %d jobs", len(events), len(jobs))
	}
	for i, ev := range events {
		if ev.Done != i+1 || ev.N != len(jobs) {
			t.Fatalf("event %d: Done=%d N=%d", i, ev.Done, ev.N)
		}
	}
}

func TestNewPoolClampsWorkers(t *testing.T) {
	if got := NewPool(3).Workers(); got != 3 {
		t.Fatalf("NewPool(3).Workers() = %d", got)
	}
	for _, n := range []int{0, -2} {
		if got := NewPool(n).Workers(); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("NewPool(%d).Workers() = %d, want GOMAXPROCS", n, got)
		}
	}
}

// TestNilPoolIsOneWorkerWithNothingToLend pins the zero configuration every
// library caller gets: Map runs inline, in order, and inner parallelism
// finds no slots to borrow.
func TestNilPoolIsOneWorkerWithNothingToLend(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	if got := p.AcquireUpTo(4); got != 0 {
		t.Fatalf("nil pool lent %d slots", got)
	}
	p.ReleaseSlots(4)
	var order []string
	jobs := make([]Job[int], 4)
	for i := range jobs {
		key := Key("j", i)
		jobs[i] = Job[int]{Key: key, Run: func(int64) (int, error) {
			order = append(order, key) // unsynchronized on purpose: -race proves inline execution
			return p.AcquireUpTo(1), nil
		}}
	}
	got, err := Map(p, 1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[j/0 j/1 j/2 j/3]" || fmt.Sprint(got) != "[0 0 0 0]" {
		t.Fatalf("nil-pool Map: order %v, loans %v", order, got)
	}
}

func TestAcquireUpToRespectsBudget(t *testing.T) {
	p := NewPool(4)
	if got := p.AcquireUpTo(10); got != 4 {
		t.Fatalf("AcquireUpTo(10) with budget 4 = %d", got)
	}
	if got := p.AcquireUpTo(1); got != 0 {
		t.Fatalf("exhausted budget must lend 0, got %d", got)
	}
	p.ReleaseSlots(4)
	if got := p.AcquireUpTo(2); got != 2 {
		t.Fatalf("after release: AcquireUpTo(2) = %d", got)
	}
	p.ReleaseSlots(2)
	if got := p.AcquireUpTo(0); got != 0 {
		t.Fatalf("AcquireUpTo(0) = %d", got)
	}
	if got := p.AcquireUpTo(-3); got != 0 {
		t.Fatalf("AcquireUpTo(-3) = %d", got)
	}
}

func TestMapJobsOccupyBudgetSlots(t *testing.T) {
	p := NewPool(3)
	// While a job runs it holds one slot, so an inner rollout asking for the
	// whole pool can only borrow what the job pool left spare.
	var spareSeen int
	jobs := []Job[int]{{Key: "probe", Run: func(int64) (int, error) {
		n := p.AcquireUpTo(10)
		spareSeen = n
		p.ReleaseSlots(n)
		return 0, nil
	}}}
	if _, err := Map(p, 0, jobs); err != nil {
		t.Fatal(err)
	}
	if spareSeen != 2 {
		t.Fatalf("job saw %d spare slots, want 2 of a 3-slot budget", spareSeen)
	}
}

// slotLedger reads the pool's slot accounting under its lock.
func slotLedger(p *Pool) (run, loan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running, p.loaned
}

// TestMapFailureLeavesNoSlotDebt is the regression test for slot accounting
// on the failure paths: a mid-campaign job failure — including one that
// borrows and returns rollout slots itself, which on the 1-slot pool is a
// loan request while saturated — or a job that panics clear through Map
// must leave the budget exactly as it found it, at any worker count and
// under -race.
func TestMapFailureLeavesNoSlotDebt(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		jobs := make([]Job[int], 8)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{Key: Key("j", i), Run: func(int64) (int, error) {
				// Borrow like an inner rollout round would, then fail
				// mid-campaign with the loan already returned.
				n := p.AcquireUpTo(2)
				time.Sleep(time.Millisecond)
				p.ReleaseSlots(n)
				if i == 3 {
					return 0, boom
				}
				return i, nil
			}}
		}
		if _, err := Map(p, 1, jobs); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: want boom, got %v", workers, err)
		}
		if run, loan := slotLedger(p); run != 0 || loan != 0 {
			t.Fatalf("workers=%d: slot debt after failed campaign: running=%d loaned=%d", workers, run, loan)
		}
		if got := p.AcquireUpTo(workers); got != workers {
			t.Fatalf("workers=%d: budget shrunk to %d after failed campaign", workers, got)
		}
		p.ReleaseSlots(workers)
	}

	p := NewPool(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("job panic must propagate through Map")
			}
		}()
		Map(p, 1, []Job[int]{{Key: "panics", Run: func(int64) (int, error) { panic("job bug") }}})
	}()
	if run, loan := slotLedger(p); run != 0 || loan != 0 {
		t.Fatalf("slot debt after a panicking job: running=%d loaned=%d", run, loan)
	}
}

// TestReleaseSlotsCannotEatRunningJobs pins the double-release guard: while
// a job occupies its slot, over-releasing loans must not free the running
// job's slot for lending (which would oversubscribe the pool).
func TestReleaseSlotsCannotEatRunningJobs(t *testing.T) {
	p := NewPool(2)
	var spareSeen int
	jobs := []Job[int]{{Key: "overrelease", Run: func(int64) (int, error) {
		p.ReleaseSlots(10) // buggy caller: nothing is on loan
		spareSeen = p.AcquireUpTo(10)
		p.ReleaseSlots(spareSeen)
		return 0, nil
	}}}
	if _, err := Map(p, 0, jobs); err != nil {
		t.Fatal(err)
	}
	if spareSeen != 1 {
		t.Fatalf("over-release freed a running job's slot: spare=%d, want 1 of a 2-slot budget", spareSeen)
	}
	if run, loan := slotLedger(p); run != 0 || loan != 0 {
		t.Fatalf("ledger left dirty: running=%d loaned=%d", run, loan)
	}
}

func TestKeyJoinsSegments(t *testing.T) {
	if got := Key("fig5", "cpu", 250, "rep", 0); got != "fig5/cpu/250/rep/0" {
		t.Fatalf("Key: %q", got)
	}
}
