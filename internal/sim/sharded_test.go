package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// ringTrace runs a deterministic multi-actor model on S shards with W
// workers and returns each actor's observed event sequence, concatenated in
// actor order. Actors are assigned to shards round-robin; every actor
// interaction goes through Send with a key unique per (timestamp, actor),
// per the cross-shard determinism contract, so every actor's sequence must
// be identical for every (S, W). (Per-actor recording is deliberate: events
// on different shards inside one lookahead window are causally independent,
// so their cross-shard interleaving is unspecified — and with workers > 1 a
// shared trace slice would be a data race.)
func ringTrace(t *testing.T, actors, shards, workers int, rounds int) []string {
	t.Helper()
	const L = 50 // lookahead
	se := NewShardedEngine(42, shards, L)
	se.SetWorkers(workers)
	perActor := make([][]string, actors)
	// Per-actor RNG keyed by actor id — shard-count independent.
	jitter := make([]Time, actors)
	for a := 0; a < actors; a++ {
		r := Stream(42, fmt.Sprintf("actor/%d", a))
		jitter[a] = Time(r.Int63n(7)) // fixed per actor, derived off the model
	}
	home := func(a int) int { return a % shards }
	var hop func(a, round int) func()
	hop = func(a, round int) func() {
		return func() {
			sh := se.Shard(home(a))
			perActor[a] = append(perActor[a], fmt.Sprintf("%d@%d r%d", a, sh.Now(), round))
			if round >= rounds {
				return
			}
			next := (a + 1) % actors
			se.Send(home(a), home(next), L+jitter[a], uint64(a), Func(hop(next, round+1)))
		}
	}
	for a := 0; a < actors; a++ {
		se.Shard(home(a)).Schedule(Time(1+a), hop(a, 0))
	}
	se.RunUntil(100_000)
	var trace []string
	for a := 0; a < actors; a++ {
		trace = append(trace, perActor[a]...)
	}
	return trace
}

func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	base := ringTrace(t, 12, 1, 1, 40)
	if len(base) == 0 {
		t.Fatal("empty trace")
	}
	for _, shards := range []int{2, 3, 4, 8, 12} {
		for _, workers := range []int{1, 2, 8} {
			got := ringTrace(t, 12, shards, workers, 40)
			if len(got) != len(base) {
				t.Fatalf("shards=%d workers=%d: %d events, want %d", shards, workers, len(got), len(base))
			}
			for i := range base {
				if got[i] != base[i] {
					t.Fatalf("shards=%d workers=%d: trace[%d] = %q, want %q", shards, workers, i, got[i], base[i])
				}
			}
		}
	}
}

// Mails with equal timestamps must deliver in key order regardless of which
// shard sent them or in which order the shards executed.
func TestShardedEqualTimestampMailOrder(t *testing.T) {
	const L = 100
	for _, workers := range []int{1, 4} {
		se := NewShardedEngine(7, 4, L)
		se.SetWorkers(workers)
		var order []uint64
		// Shards 1..3 each send a mail to shard 0 landing at the same instant;
		// keys deliberately run counter to shard index.
		keys := []uint64{30, 20, 10}
		for i := 1; i < 4; i++ {
			i := i
			se.Shard(i).Schedule(5, func() {
				k := keys[i-1]
				se.Send(i, 0, L, k, Func(func() { order = append(order, k) }))
			})
		}
		se.RunUntil(1_000)
		if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
			t.Fatalf("workers=%d: delivery order %v, want [10 20 30]", workers, order)
		}
	}
}

// mailOrder is FuzzShardedMailOrder's run: the engine and, per destination
// shard, the (at, key) of every mail it fired, in fire order. Only the
// destination's goroutine appends to its log.
type mailOrder struct {
	se    *ShardedEngine
	fired [][]mailStamp
	t     *testing.T
}

type mailStamp struct {
	at  Time
	key uint64
}

// orderMail is one mail of a chain: it fires on shard to at at, logs itself
// and, while hops are left, sends the next mail of its chain.
type orderMail struct {
	m         *mailOrder
	to        int
	at        Time
	key       uint64
	hops      int
	delay, nx byte // the next mail's delay and destination, drawn from the fuzz input
}

func (om *orderMail) Fire() {
	m := om.m
	if now := m.se.Shard(om.to).Now(); now != om.at {
		m.t.Errorf("mail %#x due at %d fired at %d", om.key, om.at, now)
	}
	m.fired[om.to] = append(m.fired[om.to], mailStamp{om.at, om.key})
	if om.hops > 0 {
		m.send(om.to, int(om.nx), om.delay, om.key+1, om.hops-1)
	}
}

const mailOrderLookahead = 16

// send mails from shard from to shard to%shards with a delay of one to five
// lookaheads, rounded up so at lands on a 4 µs grid: mails from different
// senders routinely share an at.
func (m *mailOrder) send(from, to int, d byte, key uint64, hops int) {
	to %= m.se.Shards()
	delay := mailOrderLookahead + Time(d)%(4*mailOrderLookahead)
	delay += -(m.se.Shard(from).Now() + delay) & 3
	om := &orderMail{m: m, to: to, at: m.se.Shard(from).Now() + delay, key: key, hops: hops, delay: d * 7, nx: d ^ byte(key)}
	m.se.Send(from, to, delay, key, om)
}

// FuzzShardedMailOrder sends mail chains from random shards at random times,
// with keys unique among all mails and unrelated to the send order, and
// delays from the lookahead up to several windows, so an inbox holds mails
// across windows and mails share an at. At one worker and at two, every mail
// must fire exactly at its at, every destination must fire its mails in
// (at, key) order, and nothing may be left pending.
func FuzzShardedMailOrder(f *testing.F) {
	f.Add(uint8(1), uint8(10), []byte{0, 0, 5, 1, 1, 3, 9, 2})
	f.Add(uint8(3), uint8(37), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(2), uint8(255), []byte{200, 17, 64, 3, 99, 17, 64, 7, 1, 17, 64, 2, 250, 17, 64, 0})
	f.Fuzz(func(t *testing.T, shards, slice uint8, ops []byte) {
		n := 1 + int(shards%4)
		for _, workers := range []int{1, 2} {
			se := NewShardedEngine(1, n, mailOrderLookahead)
			se.SetWorkers(workers)
			m := &mailOrder{se: se, fired: make([][]mailStamp, n), t: t}
			sent := 0
			for i := 0; i+3 < len(ops); i += 4 {
				from, to, sendAt, d := int(ops[i])%n, int(ops[i+1]), Time(ops[i+2]%64), ops[i+3]
				// The high bits scramble key order against send order; the
				// op index keeps keys unique, the low bits count the hops.
				key, hops := uint64(ops[i+3]^ops[i+2])<<32|uint64(i)<<8, int(ops[i]>>4)
				sent += 1 + hops
				se.Shard(from).ScheduleAt(sendAt, func() { m.send(from, to, d, key, hops) })
			}
			for se.RunFor(1 + Time(slice)); se.Pending() != 0; se.RunFor(1 + Time(slice)) {
			}
			got := 0
			for to, log := range m.fired {
				got += len(log)
				for j := 1; j < len(log); j++ {
					if p, q := log[j-1], log[j]; q.at < p.at || q.at == p.at && q.key <= p.key {
						t.Fatalf("workers=%d: shard %d fired mail %#x@%d after %#x@%d", workers, to, q.key, q.at, p.key, p.at)
					}
				}
			}
			if got != sent || se.Pending() != 0 {
				t.Fatalf("workers=%d: %d of %d mails fired, %d pending", workers, got, sent, se.Pending())
			}
		}
	})
}

// TestMailboxLayout pins the hand-computed padding: a mailbox fills exactly
// two cache lines, so shards that take in mail concurrently never share one.
func TestMailboxLayout(t *testing.T) {
	if sz := unsafe.Sizeof(mailbox{}); sz != 128 {
		t.Fatalf("mailbox is %d bytes, want 128", sz)
	}
}

func TestShardedSameShardSendUsesSamePath(t *testing.T) {
	// from == to must be legal and land at the same global time as a true
	// cross-shard Send with identical parameters (S=1 runs the same model).
	const L = 10
	se1 := NewShardedEngine(1, 1, L)
	se2 := NewShardedEngine(1, 2, L)
	var at1, at2 Time
	se1.Shard(0).Schedule(3, func() {
		se1.Send(0, 0, L, 1, Func(func() { at1 = se1.Shard(0).Now() }))
	})
	se2.Shard(0).Schedule(3, func() {
		se2.Send(0, 1, L, 1, Func(func() { at2 = se2.Shard(1).Now() }))
	})
	se1.RunUntil(100)
	se2.RunUntil(100)
	if at1 == 0 || at1 != at2 {
		t.Fatalf("same-shard send at %d, cross-shard at %d; want equal and nonzero", at1, at2)
	}
}

func TestShardedSendValidation(t *testing.T) {
	se := NewShardedEngine(1, 2, 100)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("short delay", func() { se.Send(0, 1, 99, 0, Func(func() {})) })
	mustPanic("nil action", func() { se.Send(0, 1, 100, 0, nil) })
	mustPanic("bad from", func() { se.Send(-1, 1, 100, 0, Func(func() {})) })
	mustPanic("bad to", func() { se.Send(0, 2, 100, 0, Func(func() {})) })
	mustPanic("zero shards", func() { NewShardedEngine(1, 0, 100) })
	mustPanic("zero lookahead", func() { NewShardedEngine(1, 1, 0) })
}

func TestShardedClockAndPending(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	ran := false
	se.Shard(1).Schedule(25, func() {
		ran = true
		se.Send(1, 0, 10, 0, Func(func() {}))
	})
	if se.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", se.Pending())
	}
	se.RunUntil(30)
	if !ran {
		t.Fatal("event did not run")
	}
	if se.Now() != 30 {
		t.Fatalf("Now = %v, want 30", se.Now())
	}
	for i := 0; i < 2; i++ {
		if got := se.Shard(i).Now(); got != 30 {
			t.Fatalf("shard %d clock = %v, want 30 (lockstep)", i, got)
		}
	}
	if se.Pending() != 1 { // the mail, due at 35, is still undelivered
		t.Fatalf("Pending = %d, want 1 undelivered mail", se.Pending())
	}
	se.RunFor(10)
	if se.Pending() != 0 || se.Now() != 40 {
		t.Fatalf("Pending = %d, Now = %v after drain", se.Pending(), se.Now())
	}
}

// A run must execute events scheduled exactly at the boundary t, matching
// Engine.RunUntil's inclusive contract.
func TestShardedRunUntilInclusive(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	ran := false
	se.Shard(1).Schedule(50, func() { ran = true })
	se.RunUntil(50)
	if !ran {
		t.Fatal("boundary event did not run")
	}
}

func TestShardedStepsCount(t *testing.T) {
	se := NewShardedEngine(1, 4, 10)
	for i := 0; i < 4; i++ {
		se.Shard(i).Schedule(Time(i+1), func() {})
	}
	se.RunUntil(100)
	if se.Steps() != 4 {
		t.Fatalf("Steps = %d, want 4", se.Steps())
	}
}

func TestShardedWorkerClamping(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	se.SetWorkers(64)
	if se.Workers() != 2 {
		t.Fatalf("Workers = %d, want clamp to 2", se.Workers())
	}
	se.SetWorkers(0)
	if se.Workers() != 1 {
		t.Fatalf("Workers = %d, want clamp to 1", se.Workers())
	}
}

// A random mail graph: actors that, on every message, log it and — from a
// private stream keyed by actor id, so by nothing a shard count can move —
// draw how many messages to send on, to whom and how late, and sometimes a
// timer on their own shard. Messages are sim.Action payloads (the message
// struct is the mail), the way internal/app mails its call frames.
type mailActor struct {
	id    int
	shard int
	se    *ShardedEngine
	peers []*mailActor
	rng   *rand.Rand
	sent  uint64
	log   []string
	// lanes routes a message through its shard's zero-delay lane on arrival
	// (the hop internal/app's sharded calls take) and sets timers on a
	// fixed-delay lane instead of the heap.
	lanes bool
}

type mailMsg struct {
	to     *mailActor
	from   int
	ttl    int
	val    uint64
	hopped bool
}

func (m *mailMsg) Fire() {
	if a := m.to; a.lanes && !m.hopped {
		m.hopped = true
		a.se.Shard(a.shard).Lane(0).Schedule(m)
		return
	}
	m.to.receive(m)
}

const mailGraphLookahead = 40

func (a *mailActor) receive(m *mailMsg) {
	now := a.se.Shard(a.shard).Now()
	a.log = append(a.log, fmt.Sprintf("t=%d from=%d ttl=%d val=%d", now, m.from, m.ttl, m.val))
	if m.ttl == 0 {
		return
	}
	for n := []int{0, 1, 1, 2}[a.rng.Intn(4)]; n > 0; n-- {
		to := a.peers[a.rng.Intn(len(a.peers))]
		delay := Time(mailGraphLookahead + a.rng.Intn(3*mailGraphLookahead))
		// Land on a 16 µs grid: mails from different senders to one actor
		// routinely share a timestamp, and only their keys order them.
		delay += -(now + delay) & 15
		a.sent++
		// (sender, per-sender counter) is unique among all mails, let alone
		// those sharing a timestamp.
		a.se.Send(a.shard, to.shard, delay, uint64(a.id)<<32|a.sent, &mailMsg{to: to, from: a.id, ttl: m.ttl - 1, val: m.val*31 + a.sent})
	}
	if a.rng.Intn(4) == 0 {
		timer, sh := &mailMsg{to: a, from: a.id, ttl: m.ttl - 1, val: m.val + 1}, a.se.Shard(a.shard)
		if d := Time(a.rng.Intn(2 * mailGraphLookahead)); a.lanes {
			sh.Lane(Time(a.id%3) * 7).Schedule(timer)
		} else {
			sh.ScheduleAction(d, timer)
		}
	}
}

// runMailGraph plays graph seed on the given shard count until it drains and
// returns every actor's log, in actor order, plus the total step count.
func runMailGraph(seed int64, shards, workers int, lanes bool) ([]string, uint64) {
	shape := Stream(seed, "mail-graph")
	actors := make([]*mailActor, 5+shape.Intn(36))
	se := NewShardedEngine(seed, shards, mailGraphLookahead)
	se.SetWorkers(workers)
	for i := range actors {
		actors[i] = &mailActor{id: i, shard: i % shards, se: se, peers: actors, rng: Stream(seed, fmt.Sprintf("mail-actor/%d", i)), lanes: lanes}
	}
	for i := 0; i < 1+len(actors)/4; i++ {
		a := actors[shape.Intn(len(actors))]
		se.Shard(a.shard).ScheduleActionAt(Time(1+shape.Intn(200)), &mailMsg{to: a, from: -1, ttl: 14, val: uint64(i)})
	}
	// Slices that are no multiple of the lookahead: most of them end on a
	// window that sent mail, which has to survive into the next RunFor.
	for se.RunFor(5000); se.Pending() != 0; se.RunFor(97) {
	}
	var out []string
	for _, a := range actors {
		out = append(out, fmt.Sprintf("actor %d:", a.id))
		out = append(out, a.log...)
	}
	return out, se.Steps()
}

// TestShardedRandomMailGraphsMatchOneShard: on random mail graphs with
// Action payloads, every actor sees the same messages at the same times in
// the same order at N shards, on one worker or N, as on one shard.
func TestShardedRandomMailGraphsMatchOneShard(t *testing.T) {
	events := uint64(0)
	for seed := int64(1); seed <= 24; seed++ {
		want, steps := runMailGraph(seed, 1, 1, false)
		events += steps
		for _, shards := range []int{2, 3, 5, 8} {
			for _, workers := range []int{1, shards} {
				got, gotSteps := runMailGraph(seed, shards, workers, false)
				if gotSteps != steps || len(got) != len(want) {
					t.Fatalf("seed %d shards=%d workers=%d: %d steps and %d log lines, want %d and %d",
						seed, shards, workers, gotSteps, len(got), steps, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d shards=%d workers=%d: line %d = %q, want %q", seed, shards, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
	t.Logf("%d events over 24 graphs", events)
	if events < 24*50 {
		t.Fatalf("only %d events over 24 graphs: the comparison would be vacuous", events)
	}
}

// Undelivered mail is pending wherever it waits: in either side of its
// sender's buffers (which side Send fills depends on how many windows have
// run) or in its destination's heap.
func TestShardedInboxPendingCountsHeapAndBothBufferSides(t *testing.T) {
	se := NewShardedEngine(1, 2, 10)
	se.Send(0, 1, 100, 1, Func(func() {}))
	if se.Pending() != 1 {
		t.Fatalf("Pending = %d with one mail sent before any run, want 1", se.Pending())
	}
	se.RunUntil(50) // not due: the mail moves to shard 1's heap
	se.Send(1, 0, 100, 2, Func(func() {}))
	if se.Pending() != 2 {
		t.Fatalf("Pending = %d with one mail in a heap and one in a buffer, want 2", se.Pending())
	}
	se.Shard(0).Schedule(1, func() { se.Send(0, 0, 100, 3, Func(func() {})) })
	se.RunUntil(60) // one window: Send now fills the other side
	se.Send(0, 1, 100, 4, Func(func() {}))
	if se.Pending() != 4 {
		t.Fatalf("Pending = %d after a window, want 4 undelivered mails", se.Pending())
	}
	se.RunUntil(1000)
	if se.Pending() != 0 || se.Stats().Mails != 4 {
		t.Fatalf("Pending = %d, %d mails taken in; want 0 and 4", se.Pending(), se.Stats().Mails)
	}
}

// A mail sent in the last window of one run is neither lost nor early in the
// next, whether or not anything else is scheduled there.
func TestShardedInboxSurvivesRunBoundary(t *testing.T) {
	for _, workers := range []int{1, 3} {
		se := NewShardedEngine(1, 3, 10)
		se.SetWorkers(workers)
		var got []Time
		se.Shard(2).Schedule(95, func() {
			se.Send(2, 0, 10, 1, Func(func() { got = append(got, se.Shard(0).Now()) }))
			se.Send(2, 0, 300, 2, Func(func() { got = append(got, se.Shard(0).Now()) }))
		})
		se.RunUntil(100)
		if len(got) != 0 || se.Pending() != 2 {
			t.Fatalf("workers=%d: %d delivered, %d pending at t=100; want 0 and 2", workers, len(got), se.Pending())
		}
		se.RunFor(4) // too short for either
		se.RunFor(1)
		if len(got) != 1 || got[0] != 105 {
			t.Fatalf("workers=%d: delivered at %v, want [105]", workers, got)
		}
		se.RunFor(1000)
		if len(got) != 2 || got[1] != 395 || se.Pending() != 0 {
			t.Fatalf("workers=%d: delivered at %v, %d pending; want [105 395] and 0", workers, got, se.Pending())
		}
	}
}

// The window counters are a function of the model and the shard count, never
// of the worker count; on one shard the busiest shard is the only shard.
func TestShardedWindowStats(t *testing.T) {
	stats := func(shards, workers int) ShardStats {
		se := NewShardedEngine(1, shards, 10)
		se.SetWorkers(workers)
		var hop func(a int) Func
		hop = func(a int) Func {
			return func() {
				if at := se.Shard(a % shards).Now(); at < 500 {
					se.Send(a%shards, (a+1)%shards, 10+Time(a), uint64(a), hop((a+1)%4))
				}
			}
		}
		for a := 0; a < 4; a++ {
			se.Shard(a%shards).Schedule(Time(1+a), hop(a))
		}
		se.Shard(0).Schedule(3, func() {}) // a window shard 0 shares with shard 1's actor
		se.RunUntil(2000)
		return se.Stats()
	}
	one := stats(1, 1)
	if one.Critical != one.Events || one.Parallel != 0 || one.Windows == 0 || one.Mails == 0 {
		t.Fatalf("one shard: %+v; want Critical = Events, no parallel window, some windows and mails", one)
	}
	for _, shards := range []int{2, 4} {
		want := stats(shards, 1)
		if got := stats(shards, shards); got != want {
			t.Fatalf("shards=%d: stats %+v on %d workers, %+v on one", shards, got, shards, want)
		}
		if want.Events != one.Events || want.Mails != one.Mails || want.Windows != one.Windows {
			t.Fatalf("shards=%d: %+v; events, mails and windows must match one shard's %+v", shards, want, one)
		}
		if want.Parallel == 0 || want.Critical >= want.Events {
			t.Fatalf("shards=%d: %+v; want a parallel window and Critical < Events", shards, want)
		}
	}
}
