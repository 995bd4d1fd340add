package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("time unit ratios wrong")
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if got := FromMillis(2.5); got != 2500*Microsecond {
		t.Fatalf("FromMillis(2.5) = %v", got)
	}
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Fatalf("Seconds() = %v", s)
	}
	if ms := (3 * Millisecond).Millis(); ms != 3.0 {
		t.Fatalf("Millis() = %v", ms)
	}
	if str := (1500 * Millisecond).String(); str != "1.500s" {
		t.Fatalf("String() = %q", str)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	e.RunUntil(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.RunUntil(7)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.Schedule(5, func() { fired = append(fired, e.Now()) })
		// Scheduling in the past clamps to now.
		e.ScheduleAt(3, func() { fired = append(fired, e.Now()) })
	})
	e.RunUntil(1000)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if fired[0] != 10 || fired[1] != 10 || fired[2] != 15 {
		t.Fatalf("fired times = %v", fired)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(11, func() { ran++ })
	e.RunUntil(10)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (event at 11 must not fire)", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.RunFor(1)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestDrainGuards(t *testing.T) {
	e := NewEngine(1)
	var reschedule func()
	reschedule = func() { e.Schedule(1, reschedule) }
	e.Schedule(1, reschedule)
	n := e.Drain(100)
	if n != 100 {
		t.Fatalf("Drain executed %d, want 100", n)
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on nil callback")
		}
	}()
	NewEngine(1).Schedule(1, nil)
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, 10, func() { ticks = append(ticks, e.Now()) })
	tk.Start()
	e.RunUntil(35)
	if len(ticks) != 3 || ticks[0] != 10 || ticks[1] != 20 || ticks[2] != 30 {
		t.Fatalf("ticks = %v", ticks)
	}
	tk.Stop()
	e.RunUntil(1000)
	if len(ticks) != 3 {
		t.Fatalf("ticker fired after Stop: %v", ticks)
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on non-positive period")
		}
	}()
	NewTicker(NewEngine(1), 0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine(seed)
		var vals []float64
		for i := 0; i < 10; i++ {
			e.Schedule(Time(i), func() { vals = append(vals, e.Rand().Float64()) })
		}
		e.RunUntil(100)
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestStreamIndependence(t *testing.T) {
	a1 := Stream(7, "workload")
	a2 := Stream(7, "workload")
	b := Stream(7, "injector")
	for i := 0; i < 16; i++ {
		if a1.Float64() != a2.Float64() {
			t.Fatal("same label+seed must match")
		}
	}
	diverged := false
	a3 := Stream(7, "workload")
	for i := 0; i < 16; i++ {
		if a3.Float64() != b.Float64() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different labels must produce different streams")
	}
}

func TestExponentialMean(t *testing.T) {
	r := Stream(1, "exp")
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(Exponential(r, Second))
	}
	mean := sum / n
	if math.Abs(mean-float64(Second)) > 0.02*float64(Second) {
		t.Fatalf("exponential mean = %v, want ≈ %v", mean, float64(Second))
	}
	if Exponential(r, 0) != 0 || Exponential(r, -5) != 0 {
		t.Fatal("non-positive mean must yield 0")
	}
}

func TestNormalClamped(t *testing.T) {
	r := Stream(1, "norm")
	for i := 0; i < 10000; i++ {
		v := NormalClamped(r, 0, 1, -0.5, 0.5)
		if v < -0.5 || v > 0.5 {
			t.Fatalf("value %v outside clamp", v)
		}
	}
}

// Property: for any batch of scheduled delays, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(1)
		var seen []Time
		for _, d := range delays {
			e.Schedule(Time(d), func() { seen = append(seen, e.Now()) })
		}
		e.RunUntil(Time(math.MaxUint16) + 1)
		if len(seen) != len(delays) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(t) leaves the clock at exactly t when t is beyond the
// last event.
func TestPropertyClockLandsOnTarget(t *testing.T) {
	f := func(target uint16, delays []uint8) bool {
		e := NewEngine(1)
		for _, d := range delays {
			e.Schedule(Time(d), func() {})
		}
		tt := Time(target) + Time(math.MaxUint8) + 1
		e.RunUntil(tt)
		return e.Now() == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineReset: a Reset engine discards its pending events unfired and is
// then the engine NewEngine(seed) builds — clock, counters, FIFO order among
// equal times and random stream — scheduling into the event records it kept.
func TestEngineReset(t *testing.T) {
	e := NewEngine(1)
	fired := false
	for i := 0; i < 40; i++ {
		e.Schedule(Time(i%7)*Second, func() { e.Rand().Int63() })
	}
	e.RunUntil(3 * Second)
	e.Schedule(Hour, func() { fired = true })
	rng := e.Rand()
	e.Reset(9)
	fresh := NewEngine(9)
	if e.Now() != 0 || e.Pending() != 0 || e.Steps() != 0 || e.Rand() != rng {
		t.Fatalf("after Reset: now %v, %d pending, %d steps, stream replaced %v", e.Now(), e.Pending(), e.Steps(), e.Rand() != rng)
	}
	var got, want []int64
	run := func(x *Engine, out *[]int64) {
		for i := 0; i < 30; i++ {
			x.Schedule(Time(i%3)*Millisecond, func() { *out = append(*out, int64(i), int64(x.Now()), x.Rand().Int63()) })
		}
		x.RunUntil(Hour + Second)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 30; i++ {
			e.ScheduleAction(Time(i), Func(func() {}))
		}
		e.Reset(9)
	}); allocs != 0 {
		t.Fatalf("scheduling into a Reset engine's kept records allocates %v", allocs)
	}
	run(e, &got)
	run(fresh, &want)
	if fired || !slices.Equal(got, want) || e.Steps() != fresh.Steps() {
		t.Fatalf("discarded event fired %v; Reset engine ran %v in %d steps, a new one %v in %d", fired, got, e.Steps(), want, fresh.Steps())
	}
}
