package sim

import "testing"

// Edge semantics the sharded loop relies on: past-time clamping, conversion
// truncation, freelist recycling, and Ticker restart behaviour.

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

// Recycled event records must not leak ordering state: a hot pop→push loop
// reuses the same records, and FIFO at equal timestamps must survive that.
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
	cycle() // warm: the pool and the engine's event records
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
