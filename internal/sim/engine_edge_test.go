package sim

import (
	"slices"
	"testing"
)

// Edge semantics the sharded loop relies on: past-time clamping, conversion
// truncation, heap slot reuse, lanes, and Ticker restart behaviour.

func TestFromSecondsTruncatesTowardZero(t *testing.T) {
	cases := []struct {
		s    float64
		want Time
	}{
		{1e-7, 0},         // below one tick truncates to zero, not one
		{1.4999e-6, 1},    // 1.4999µs → 1µs
		{-1.4999e-6, -1},  // toward zero, not toward -inf
		{-1e-7, 0},        // tiny negatives also collapse to zero
		{2.9999e-3, 2999}, // FromSeconds at ms scale
		{-2.9999e-3, -2999},
	}
	for _, c := range cases {
		if got := FromSeconds(c.s); got != c.want {
			t.Errorf("FromSeconds(%g) = %v, want %v", c.s, got, c.want)
		}
	}
	if got := FromMillis(0.0009); got != 0 {
		t.Errorf("FromMillis(0.0009) = %v, want 0", got)
	}
	if got := FromMillis(-0.0015); got != -1 {
		t.Errorf("FromMillis(-0.0015) = %v, want -1", got)
	}
}

func TestScheduleAtClampsPastTimes(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.RunUntil(10)
	var fired []Time
	e.ScheduleAt(5, func() { fired = append(fired, e.Now()) }) // in the past
	e.ScheduleAt(10, func() { fired = append(fired, e.Now()) })
	e.RunUntil(10)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 10 {
		t.Fatalf("past-time events fired at %v, want [10 10]", fired)
	}
	// Negative delay clamps the same way.
	ran := false
	e.Schedule(-100, func() { ran = true })
	e.RunUntil(10)
	if !ran {
		t.Fatal("negative-delay event never ran")
	}
}

func TestScheduleAtClampPreservesFIFO(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.RunUntil(10)
	var order []int
	e.ScheduleAt(10, func() { order = append(order, 1) })
	e.ScheduleAt(3, func() { order = append(order, 2) }) // clamped to 10
	e.ScheduleAt(10, func() { order = append(order, 3) })
	e.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("clamped events fired in order %v, want [1 2 3]", order)
	}
}

// Reused heap slots must not leak ordering state: a hot pop→push loop
// writes events into the slots earlier ones left, and FIFO at equal
// timestamps must survive that.
func TestFreelistReusePreservesFIFO(t *testing.T) {
	e := NewEngine(1)
	// Prime the freelist.
	for i := 0; i < 32; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunUntil(32)
	var order []int
	for i := 0; i < 16; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.RunUntil(200)
	for i, v := range order {
		if v != i {
			t.Fatalf("recycled events fired out of order: %v", order)
		}
	}
}

func TestTickerStopStartCycles(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, 10, func() { ticks = append(ticks, e.Now()) })

	tk.Start()
	e.RunUntil(25) // ticks at 10, 20
	tk.Stop()
	e.RunUntil(100) // silent
	if len(ticks) != 2 {
		t.Fatalf("after first Stop: ticks = %v", ticks)
	}

	tk.Start()      // the bug: this used to never tick again
	e.RunUntil(125) // ticks at 110, 120
	if len(ticks) != 4 || ticks[2] != 110 || ticks[3] != 120 {
		t.Fatalf("after restart: ticks = %v", ticks)
	}

	tk.Stop()
	tk.Stop() // idempotent
	e.RunUntil(500)
	if len(ticks) != 4 {
		t.Fatalf("after second Stop: ticks = %v", ticks)
	}
}

// A pending closure from before a Stop must be dead even if Start is called
// before that closure's timestamp arrives — otherwise the restarted ticker
// would tick on both the old and the new chain.
func TestTickerRestartInvalidatesPendingTick(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, 10, func() { n++ })
	tk.Start() // chain A: first tick at 10
	e.RunUntil(5)
	tk.Stop()
	tk.Start() // chain B: first tick at 15
	e.RunUntil(30)
	// Only chain B may fire: ticks at 15 and 25.
	if n != 2 {
		t.Fatalf("got %d ticks, want 2 (old chain must not fire)", n)
	}
}

func TestTickerStartWhileRunningRestartsChain(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, 10, func() { ticks = append(ticks, e.Now()) })
	tk.Start()
	e.RunUntil(12) // tick at 10
	tk.Start()     // restart mid-flight: next tick at 22, old chain dead
	e.RunUntil(40)
	want := []Time{10, 22, 32}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// TestPropertyTickerMatchesModel drives a ticker through random Stop/Start
// sequences — several at one instant, and restarts at the very instant a
// tick is due — and checks every tick time against a reference model: a
// Start at T ticks at T+P, T+2P, … until the next Stop or Start, and an
// operation scheduled before a tick due at the same instant retires it. So
// a retired chain never fires, and the live one ticks once per period.
func TestPropertyTickerMatchesModel(t *testing.T) {
	const period, horizon = 10, 600
	for seed := int64(1); seed <= 300; seed++ {
		r := Stream(seed, "ticker-model")
		e := NewEngine(seed)
		var got []Time
		tk := NewTicker(e, period, func() { got = append(got, e.Now()) })
		// The model advances with the generated operations, so an operation
		// can be placed exactly on the live chain's next due tick.
		var want []Time
		running, next, at := false, Time(0), Time(0)
		for at < horizon-3*period {
			switch k := r.Intn(4); {
			case k == 0 && running:
				at = next // exactly when a tick is due
			case k == 1: // same instant as the previous operation
			default:
				at += Time(1 + r.Intn(3*period))
			}
			for running && next < at {
				want = append(want, next)
				next += period
			}
			if r.Intn(3) == 0 {
				e.ScheduleAt(at, tk.Stop)
				running = false
			} else {
				e.ScheduleAt(at, tk.Start)
				running, next = true, at+period
			}
		}
		for running && next <= horizon {
			want = append(want, next)
			next += period
		}
		e.RunUntil(horizon)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d ticks, want %d:\n got %v\nwant %v", seed, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: tick %d at %v, want %v:\n got %v\nwant %v", seed, i, got[i], want[i], got, want)
			}
		}
	}
}

// TestTickerWarmTickAllocatesNothing: a tick is a pooled record, not a
// closure, so a warm ticker — restarts included — allocates nothing, and its
// pool holds only the ticks ever pending at once.
func TestTickerWarmTickAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, 10, func() { n++ })
	tk.Start()
	cycle := func() {
		e.RunFor(35)
		tk.Stop()
		tk.Start() // the retired tick is still in the heap
		e.RunFor(35)
	}
	cycle() // warm: the pool and the engine's heap
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("%v allocs per cycle, want 0", allocs)
	}
	if n < 51*6 {
		t.Fatalf("%d ticks in 51 cycles, want at least %d", n, 51*6)
	}
	if pooled := len(tk.free) + e.Pending(); pooled > 2 {
		t.Fatalf("%d tick records pooled or pending, want at most 2", pooled)
	}
}

// TestResetDiscardsLaneEvents: Reset drops lane events unfired, as it does
// heap events, and keeps the lanes — Lane returns the same ones — with their
// storage: refilling them allocates nothing.
func TestResetDiscardsLaneEvents(t *testing.T) {
	e := NewEngine(1)
	a, b := e.Lane(5), e.Lane(300)
	fired := false
	act := Func(func() { fired = true })
	fill := func() {
		for i := 0; i < 64; i++ {
			a.Schedule(act)
			b.Schedule(act)
		}
		e.ScheduleAction(7, act)
	}
	e.RunUntil(2)
	fill()
	e.Reset(1)
	if e.Pending() != 0 || e.Now() != 0 {
		t.Fatalf("after Reset: %d pending, clock at %v", e.Pending(), e.Now())
	}
	if e.Lane(5) != a || e.Lane(300) != b {
		t.Fatal("Reset replaced a lane")
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(); e.Reset(1) }); allocs != 0 {
		t.Fatalf("refilling the lanes of a Reset engine allocates %v", allocs)
	}
	e.RunUntil(Hour)
	if fired || e.Steps() != 0 {
		t.Fatalf("a discarded event fired (%v, %d steps)", fired, e.Steps())
	}
}

// TestHeapAndLaneEventsAtOneInstantFireInSeqOrder: events due at the same
// instant fire in the order they were scheduled, whether they wait in the
// heap or in a lane — also those scheduled from a Fire at that instant.
func TestHeapAndLaneEventsAtOneInstantFireInSeqOrder(t *testing.T) {
	e := NewEngine(1)
	ten, zero := e.Lane(10), e.Lane(0)
	var order []int
	rec := func(i int) Action { return Func(func() { order = append(order, i) }) }
	e.ScheduleAction(10, rec(0))
	ten.Schedule(rec(1))
	e.ScheduleAt(10, func() {
		order = append(order, 2)
		zero.Schedule(rec(5))
		e.ScheduleAction(0, rec(6))
		zero.Schedule(rec(7))
	})
	ten.Schedule(rec(3))
	e.ScheduleActionAt(10, rec(4))
	e.RunUntil(9)
	if len(order) != 0 {
		t.Fatalf("fired %v before their time", order)
	}
	e.RunUntil(10)
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) || e.Now() != 10 {
		t.Fatalf("fired %v by %v, want %v by 10", order, e.Now(), want)
	}

	// Two lanes, each holding one event due at 18: the one scheduled first
	// fires first, although its lane comes later in the engine's list.
	order = order[:0]
	four, eight := e.Lane(4), e.Lane(8)
	eight.Schedule(rec(0))
	four.Schedule(Func(func() { four.Schedule(rec(1)) }))
	e.RunUntil(18)
	if want := []int{0, 1}; !slices.Equal(order, want) {
		t.Fatalf("two lanes fired %v, want %v", order, want)
	}
}

// TestLaneFindsOrCreates: an engine has one lane per delay — a negative
// delay is zero's — and engines share none.
func TestLaneFindsOrCreates(t *testing.T) {
	e := NewEngine(1)
	l := e.Lane(7)
	if e.Lane(7) != l || l.Delay() != 7 {
		t.Fatalf("Lane(7) gave a second lane, or delay %v", l.Delay())
	}
	if e.Lane(8) == l || e.Lane(-3) != e.Lane(0) || e.Lane(0).Delay() != 0 {
		t.Fatal("lanes for 7, 8, -3 and 0 are not three lanes")
	}
	if NewEngine(1).Lane(7) == l {
		t.Fatal("two engines share a lane")
	}
}

// TestShardedHopLanesMatchOneShard: with every message taking an arrival
// hop on its destination shard's zero-delay lane — as internal/app's sharded
// calls do — and every timer set on a fixed-delay lane, each actor of a
// random mail graph sees the same messages at the same times in the same
// order at 1, 2 and 4 shards, on one worker or two.
func TestShardedHopLanesMatchOneShard(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		want, steps := runMailGraph(seed, 1, 1, true)
		if _, heapSteps := runMailGraph(seed, 1, 1, false); steps <= heapSteps {
			t.Fatalf("seed %d: %d steps with lanes, %d without: no message took a hop", seed, steps, heapSteps)
		}
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2} {
				got, gotSteps := runMailGraph(seed, shards, workers, true)
				if gotSteps != steps || !slices.Equal(got, want) {
					t.Fatalf("seed %d shards=%d workers=%d: %d steps and %d log lines differ from one shard's %d and %d",
						seed, shards, workers, gotSteps, len(got), steps, len(want))
				}
			}
		}
	}
}
