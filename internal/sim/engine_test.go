package sim

import (
	"fmt"
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
// equal times and random stream — scheduling into the heap storage it kept.
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

// orderModel is FuzzEngineOrder's reference engine: the events pending, as
// (at, seq) in the epoch (Resets so far) that scheduled them, and the clock.
// Whatever heap or lane an event waits in, the engine must fire the pending
// event that sorts first under (at, seq) — the head of a stable sort of the
// schedule by at — at its at.
type orderModel struct {
	t       *testing.T
	e       *Engine
	lanes   []*Lane
	now     Time
	seq     uint64
	epoch   int
	steps   uint64
	pending []orderEvent
}

type orderEvent struct {
	at    Time
	seq   uint64
	epoch int
}

// orderAction is one scheduled event. Firing checks it against the model;
// with nest set it then schedules three events from inside Fire: on a lane,
// on the heap after a delay (negative ones too) and at a past time.
type orderAction struct {
	m    *orderModel
	ev   orderEvent
	nest byte
}

func (a *orderAction) Fire() {
	m := a.m
	i := m.first()
	if i < 0 || m.pending[i] != a.ev {
		m.t.Fatalf("fired %+v; the model's pending events are %+v, the first at %d", a.ev, m.pending, i)
	}
	if m.e.Now() != a.ev.at {
		m.t.Fatalf("fired %+v with the clock at %v", a.ev, m.e.Now())
	}
	m.pending = slices.Delete(m.pending, i, i+1)
	m.now = a.ev.at
	m.steps++
	if n := a.nest; n != 0 {
		m.onLane(int(n), 0)
		m.after(Time(n>>2)-2, 0)
		m.at(m.now-Time(n&3), 0)
	}
}

// first returns the index of the pending event first under (at, seq), or -1.
func (m *orderModel) first() int {
	best := -1
	for i, ev := range m.pending {
		if best < 0 || ev.at < m.pending[best].at || ev.at == m.pending[best].at && ev.seq < m.pending[best].seq {
			best = i
		}
	}
	return best
}

func (m *orderModel) add(at Time, nest byte) *orderAction {
	m.seq++
	a := &orderAction{m: m, ev: orderEvent{at: at, seq: m.seq, epoch: m.epoch}, nest: nest}
	m.pending = append(m.pending, a.ev)
	return a
}

func (m *orderModel) after(d Time, nest byte) { m.e.ScheduleAction(d, m.add(m.now+max(d, 0), nest)) }

func (m *orderModel) at(at Time, nest byte) { m.e.ScheduleActionAt(at, m.add(max(at, m.now), nest)) }

func (m *orderModel) onLane(k int, nest byte) {
	l := m.lanes[k%len(m.lanes)]
	l.Schedule(m.add(m.now+l.Delay(), nest))
}

func (m *orderModel) check(op string) {
	if m.e.Pending() != len(m.pending) || m.e.Now() != m.now || m.e.Steps() != m.steps {
		m.t.Fatalf("after %s: engine at %v with %d pending after %d steps, model at %v with %d after %d",
			op, m.e.Now(), m.e.Pending(), m.e.Steps(), m.now, len(m.pending), m.steps)
	}
}

// FuzzEngineOrder drives mutated sequences of heap schedules (negative
// delays and past times among them), lane schedules on one to three lanes
// (two may share a delay, and so a lane), events that schedule more from
// Fire, Step, RunUntil and Reset, and checks every fire against orderModel
// and Pending, Now and Steps after every operation.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint8(3), uint8(5), uint8(0), uint8(1), []byte{2, 0, 10, 18, 5, 5, 5, 5})
	f.Add(uint8(4), uint8(4), uint8(9), uint8(2), []byte{3, 4, 11, 20, 2, 10, 1, 6, 59, 84, 7, 2, 12, 5, 134, 255})
	f.Add(uint8(0), uint8(1), uint8(2), uint8(0), []byte{33, 41, 2, 10, 7, 2, 5, 0, 8, 61, 46, 151})
	f.Fuzz(func(t *testing.T, d0, d1, d2, nLanes uint8, ops []byte) {
		e := NewEngine(1)
		m := &orderModel{t: t, e: e}
		for _, d := range []uint8{d0, d1, d2}[:1+nLanes%3] {
			m.lanes = append(m.lanes, e.Lane(Time(d%16)-2)) // -2 and -1 clamp to 0
		}
		for _, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				m.after(Time(arg)-4, 0)
			case 1:
				m.at(m.now+Time(arg)-8, 0)
			case 2:
				m.onLane(arg, 0)
			case 3:
				m.after(Time(arg&7), byte(arg)|1)
			case 4:
				m.onLane(arg, byte(arg)|1)
			case 5:
				if n := len(m.pending); e.Step() != (n > 0) {
					t.Fatalf("Step with %d events pending reported the opposite", n)
				}
			case 6:
				until := m.now + Time(arg)
				e.RunUntil(until)
				for _, ev := range m.pending {
					if ev.at <= until {
						t.Fatalf("RunUntil(%v) left %+v pending", until, ev)
					}
				}
				m.now = max(m.now, until)
			case 7:
				if arg&3 != 0 {
					e.Step()
					break
				}
				e.Reset(int64(arg))
				m.pending, m.now, m.seq, m.steps = m.pending[:0], 0, 0, 0
				m.epoch++
				for _, l := range m.lanes {
					if e.Lane(l.Delay()) != l {
						t.Fatalf("Reset replaced the lane for %v", l.Delay())
					}
				}
			}
			m.check(fmt.Sprintf("op %d (%d, %d)", op&7, op, arg))
		}
		for e.Step() {
		}
		m.check("drain")
		if len(m.pending) != 0 {
			t.Fatalf("drained engine; the model still holds %+v", m.pending)
		}
	})
}
