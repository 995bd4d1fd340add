package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the sharded event engine: N Engine shards, each
// owning a partition of the model, advanced in lockstep behind a shared
// clock. It is a conservative parallel discrete-event simulator
// with lookahead: the shards' partitions may only interact through Send,
// whose delay is bounded below by the lookahead, so all events inside one
// lookahead window are causally independent across shards and the shards
// can execute a window concurrently without ever seeing each other's
// mid-window state.
//
// The determinism contract mirrors -parallel: for a fixed shard
// count, output is byte-identical at any worker count (each shard's window
// is a sequential run over private state; workers only choose which OS
// thread executes it). Byte-identical output across *shard counts* is a
// model-level contract on top: it holds when (a) every cross-component
// interaction goes through Send — even when source and destination happen
// to share a shard — with a key that is unique among all mails sharing a
// timestamp, (b) component placement onto shards is a pure function of the
// model (never of shard-local state), and (c) no component draws from a
// shard engine's Rand. internal/app's sharded deployment (DeploySharded) and
// internal/harness's sharded placement are built to those rules.

// mailbox is one shard's end of the mail path. A mail is an event whose seq
// holds the sender's key. While a window runs, the shard appends what it
// sends to out[flip] (Send) and each destination empties its own column of
// out[flip^1] into its inbox (runShard); between windows the coordinator
// swaps the sides. No word of it has two users at once.
type mailbox struct {
	out   [2][][]event // out[side][to]: sent by this shard, not yet taken in
	first [2]Time      // earliest at in out[side]; noMail when it is empty
	inbox eventHeap    // taken in by this shard, not yet due, in (at, key) order
	mails uint64       // mails this shard has taken in
	seen  uint64       // the shard's step count when the last window was tallied
	_     [24]byte     // 128 bytes: neighbouring shards stay off this cache line
}

const noMail = Time(1<<63 - 1)

// ShardStats counts what the windows run so far cost. Every field is a pure
// function of the model and the shard count — equal at any worker count and
// on any machine — so Events/Critical, the critical-path bound on what
// running shards in parallel can gain, can be gated where wall time cannot.
type ShardStats struct {
	Windows  uint64 // lookahead windows executed
	Parallel uint64 // windows in which more than one shard executed events
	Mails    uint64 // mails taken in by their destination shard
	Events   uint64 // events executed (Steps)
	Critical uint64 // Σ over windows of the busiest shard's events
}

// ShardedEngine advances N shards in lockstep windows of one lookahead
// each. Per round the coordinator picks the globally earliest pending
// timestamp T and releases every shard with work in [T, T+lookahead) or mail
// to take in — concurrently when workers > 1. A released shard first moves
// what the previous window sent it into its inbox — an eventHeap whose seqs
// are the senders' keys — schedules the mails due in this window in
// (at, key) order, then runs its events. Events therefore fire in global
// (timestamp, delivery order) order even though shards execute in parallel,
// and no mail is handled by the coordinator.
type ShardedEngine struct {
	shards    []*Engine
	box       []mailbox
	flip      int // the side of mailbox.out Send appends to
	lookahead Time
	workers   int
	now       Time
	stats     ShardStats

	// Window-execution scratch: the shard indices released in the current
	// window, its last instant, and the rendezvous with the helper goroutines
	// RunUntil spawns (nil outside a run, and on one worker).
	active []int
	until  Time
	meet   *rendezvous
}

// rendezvous is how one RunUntil shares its windows with its helpers. The
// coordinator opens a window by storing the number of released shards in
// todo and one minus that number in done; coordinator and helpers claim
// shards by counting todo down, and each finished shard counts done up, so
// done turns positive with the window's last shard. Nobody checks in: a helper
// that gets no CPU claims nothing and delays nobody, so a busy host degrades
// the run to the coordinator working alone, never to waiting. A window is tens
// of microseconds, so whoever waits — a helper for todo, the coordinator for
// done — is usually microseconds early: it makes spin loads (some hundred
// microseconds) before it parks, which costs the waker a futex call and the
// sleeper a wake-up, each longer than a typical window.
type rendezvous struct {
	todo, done atomic.Int32
	stop       atomic.Bool
	spin       int
	mu         sync.Mutex
	wake       sync.Cond
}

const spinRounds = 1 << 17

// await returns once v is positive or the run has stopped.
func (r *rendezvous) await(v *atomic.Int32) {
	for i := 0; i < r.spin; i++ {
		if v.Load() > 0 || r.stop.Load() {
			return
		}
	}
	r.mu.Lock()
	for v.Load() <= 0 && !r.stop.Load() {
		r.wake.Wait()
	}
	r.mu.Unlock()
}

// post wakes whoever parked before the caller's last store.
func (r *rendezvous) post() {
	r.mu.Lock()
	r.wake.Broadcast()
	r.mu.Unlock()
}

// NewShardedEngine builds n shards. Each shard's private random stream is
// derived from (seed, "shard/<i>") — models that must be byte-identical
// across shard counts key their own streams off model-stable labels instead
// (see Stream), but shard-confined uses stay reproducible either way.
// lookahead is the minimum cross-shard delay Send will accept; it must be
// positive, and the larger it is the fewer barrier rounds a run needs.
func NewShardedEngine(seed int64, n int, lookahead Time) *ShardedEngine {
	if n < 1 {
		panic("sim: NewShardedEngine needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: NewShardedEngine needs a positive lookahead")
	}
	se := &ShardedEngine{
		shards:    make([]*Engine, n),
		box:       make([]mailbox, n),
		lookahead: lookahead,
		workers:   1,
	}
	for i := range se.shards {
		se.shards[i] = NewEngine(DeriveSeed(seed, fmt.Sprintf("shard/%d", i)))
		se.box[i].out = [2][][]event{make([][]event, n), make([][]event, n)}
		se.box[i].first = [2]Time{noMail, noMail}
	}
	return se
}

// Shards returns the shard count.
func (se *ShardedEngine) Shards() int { return len(se.shards) }

// Shard returns shard i's engine. Scheduling directly on it is setup-time
// API (and window-time API for the components the shard owns); cross-shard
// effects must go through Send.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Lookahead returns the minimum cross-shard delay.
func (se *ShardedEngine) Lookahead() Time { return se.lookahead }

// Now returns the shared clock: the time the last Run call advanced to.
func (se *ShardedEngine) Now() Time { return se.now }

// SetWorkers sets how many OS threads execute each window's shards
// (clamped to [1, shards]). Worker count never changes results — only
// which thread runs a shard. Must not be called during a Run.
func (se *ShardedEngine) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(se.shards) {
		n = len(se.shards)
	}
	se.workers = n
}

// Workers returns the window-execution worker count.
func (se *ShardedEngine) Workers() int { return se.workers }

// Pending reports scheduled events plus undelivered mails across all shards.
func (se *ShardedEngine) Pending() int {
	n := 0
	for i, sh := range se.shards {
		n += sh.Pending() + len(se.box[i].inbox)
		for to := range se.shards {
			n += len(se.box[i].out[0][to]) + len(se.box[i].out[1][to])
		}
	}
	return n
}

// Steps reports how many events have executed across all shards.
func (se *ShardedEngine) Steps() uint64 {
	var n uint64
	for _, sh := range se.shards {
		n += sh.Steps()
	}
	return n
}

// Stats returns the window counters. Must not be called during a Run.
func (se *ShardedEngine) Stats() ShardStats {
	st := se.stats
	st.Events = se.Steps()
	for i := range se.box {
		st.Mails += se.box[i].mails
	}
	return st
}

// Send fires act on shard to at the sender's now + delay. from must be the
// shard the caller is executing on (shard 0 during setup); delay must be at
// least the lookahead — that bound is exactly what lets windows run
// concurrently, so a shorter delay is a model error and panics. The mail is
// the event {at, key, act}: key takes the place of seq, so the destination
// fires mails sharing a timestamp in key order, whichever shard sent them.
// key must be unique among all mails sharing a timestamp; that is what makes
// the order independent of the shard count. A model that breaks the rule
// still reproduces at a fixed configuration: the inbox receives the same
// pushes in the same order on every run. act fires on the destination
// shard's goroutine, and whatever it points to belongs to that shard from
// then on: the sender must not touch it after Send.
//
//firmvet:noalloc
func (se *ShardedEngine) Send(from, to int, delay Time, key uint64, act Action) {
	if act == nil {
		panic("sim: Send with nil action")
	}
	if from < 0 || from >= len(se.shards) || to < 0 || to >= len(se.shards) {
		panic(fmt.Sprintf("sim: Send %d→%d outside [0,%d)", from, to, len(se.shards)))
	}
	if delay < se.lookahead {
		panic(fmt.Sprintf("sim: Send delay %v below lookahead %v", delay, se.lookahead))
	}
	b, side, at := &se.box[from], se.flip, se.shards[from].Now()+delay
	b.out[side][to] = append(b.out[side][to], event{at: at, seq: key, act: act})
	if at < b.first[side] {
		b.first[side] = at
	}
}

// runShard is shard to's window. It first empties the buffers the last swap
// left for it into its inbox — senders in shard-index order, each in send
// order — and schedules every mail due by until. Mails pop in (at, key)
// order, so equal-timestamp mails get their engine seqs — and therefore their
// execution order — from their keys, not from which shard sent them. Then
// its events run.
//
//firmvet:noalloc
func (se *ShardedEngine) runShard(to int, until Time) {
	b, side := &se.box[to], se.flip^1
	for from := range se.box {
		in := se.box[from].out[side][to]
		if len(in) == 0 {
			continue
		}
		for j := range in {
			b.inbox.push(in[j])
			in[j].act = nil // keep the reused buffer from pinning actions
		}
		b.mails += uint64(len(in))
		se.box[from].out[side][to] = in[:0]
	}
	for len(b.inbox) > 0 && b.inbox[0].at <= until {
		m := b.inbox[0]
		b.inbox.pop()
		se.shards[to].ScheduleActionAt(m.at, m.act)
	}
	se.shards[to].RunUntil(until)
}

// swap hands what the last window sent to its destinations: the side Send
// filled becomes the side runShard reads. The side it replaces is empty —
// every shard with mail waiting is released in every window — and starts over.
//
//firmvet:noalloc
func (se *ShardedEngine) swap() {
	se.flip ^= 1
	for i := range se.box {
		se.box[i].first[se.flip] = noMail
	}
}

// nextTime returns the earliest pending timestamp across all shard events
// and undelivered mails; ok is false when the whole system is idle.
func (se *ShardedEngine) nextTime() (t Time, ok bool) {
	t = noMail
	for i, sh := range se.shards {
		b := &se.box[i]
		if ev, _ := sh.peek(); ev != nil && ev.at < t {
			t = ev.at
		}
		if len(b.inbox) > 0 && b.inbox[0].at < t {
			t = b.inbox[0].at
		}
		if b.first[se.flip^1] < t {
			t = b.first[se.flip^1]
		}
	}
	return t, t != noMail
}

// RunUntil advances the shared clock to t, executing all events and
// delivering all mails with timestamps <= t.
func (se *ShardedEngine) RunUntil(t Time) {
	se.swap() // setup-time sends
	if se.workers > 1 {
		r := &rendezvous{}
		r.wake.L = &r.mu
		//firmvet:allow nondeterm -- decides only whether a waiter spins before it parks; no result depends on it
		if se.workers <= runtime.GOMAXPROCS(0) {
			r.spin = spinRounds // a CPU per worker; spinning for a peer that has none only delays it
		}
		se.meet = r
		for k := 1; k < se.workers; k++ {
			// Helpers get the rendezvous as an argument: the field is nilled at the
			// end of this call, possibly before a late-scheduled helper goroutine
			// gets its first timeslice.
			go se.helper(r)
		}
	}
	for {
		T, ok := se.nextTime()
		if !ok || T > t {
			break
		}
		// The window is [T, until): until-1 is the last included instant.
		until := T + se.lookahead
		if until > t+1 || until < T { // clamp to the run end; < T guards overflow
			until = t + 1
		}
		se.runWindow(until - 1)
		se.swap()
	}
	if r := se.meet; r != nil {
		se.meet = nil
		r.stop.Store(true)
		r.post()
	}
	for i := range se.shards {
		// Nothing is due by t any more: this moves what the last window sent
		// into its destinations' inboxes (both buffer sides are empty between
		// runs) and brings every shard's clock to t.
		se.runShard(i, t)
	}
	se.now = t
}

// RunFor advances the shared clock by d.
func (se *ShardedEngine) RunFor(d Time) { se.RunUntil(se.now + d) }

// runWindow releases every shard with an event or a mail due by until
// (inclusive), or with mail to take in, then tallies the window. Each shard
// is claimed exactly once (see rendezvous), so shard state is only ever
// touched by one goroutine per window and the claim order cannot affect
// results.
//
//firmvet:noalloc
func (se *ShardedEngine) runWindow(until Time) {
	active, side := se.active[:0], se.flip^1
	for i, sh := range se.shards {
		ev, _ := sh.peek()
		due := ev != nil && ev.at <= until ||
			len(se.box[i].inbox) > 0 && se.box[i].inbox[0].at <= until
		for from := 0; !due && from < len(se.box); from++ {
			due = len(se.box[from].out[side][i]) > 0
		}
		if due {
			active = append(active, i)
		}
	}
	se.active, se.until = active, until
	if r := se.meet; r == nil || len(active) < 2 {
		for _, i := range active {
			se.runShard(i, until)
		}
	} else {
		r.done.Store(1 - int32(len(active)))
		r.todo.Store(int32(len(active)))
		r.post()
		se.chew(r)
		r.await(&r.done)
	}

	var busy, most uint64
	for _, i := range active {
		n := se.shards[i].nSteps - se.box[i].seen
		se.box[i].seen += n
		most = max(most, n)
		busy += min(n, 1)
	}
	se.stats.Windows++
	se.stats.Critical += most
	if busy > 1 {
		se.stats.Parallel++
	}
}

func (se *ShardedEngine) helper(r *rendezvous) {
	for r.await(&r.todo); !r.stop.Load(); r.await(&r.todo) {
		se.chew(r)
	}
}

// chew claims and runs shards of the open window until none is left. A claim
// keeps the window open, so active and until are the claimed window's.
//
//firmvet:noalloc
func (se *ShardedEngine) chew(r *rendezvous) {
	for k := r.todo.Add(-1); k >= 0; k = r.todo.Add(-1) {
		se.runShard(se.active[k], se.until)
		if r.done.Add(1) > 0 {
			r.post()
		}
	}
}
