package ring

import (
	"math/rand"
	"testing"
)

// model runs one operation sequence on a Ring and on a slice-backed
// reference, failing on the first disagreement. Pushed values are 1, 2, ...
// so a slot's last tenant is identifiable; 0 is a never-used slot.
type model struct {
	t     testing.TB
	size  int
	r     Ring[int]
	ref   []int        // held values, oldest first
	gone  map[int]bool // values popped or evicted
	next  int
	peak  int // largest Len seen
	grows int // growths that started from a wrapped ring
}

func newModel(t testing.TB, bound, size int) *model {
	return &model{t: t, size: size, r: New[int](bound, size), gone: map[int]bool{}}
}

func (m *model) push() {
	full := m.r.full()
	if m.r.Len() == len(m.r.buf) && !full && m.r.head != 0 {
		m.grows++
	}
	s := m.r.Push()
	switch prev := *s; {
	case full:
		if prev != m.ref[0] {
			m.t.Fatalf("push on a full ring: slot held %d, want the evicted oldest %d", prev, m.ref[0])
		}
		m.gone[prev] = true
		m.ref = m.ref[1:]
	case prev != 0 && !m.gone[prev]:
		m.t.Fatalf("push handed out the slot of %d, which is still held or never left", prev)
	}
	m.next++
	*s = m.next
	m.ref = append(m.ref, m.next)
	m.peak = max(m.peak, len(m.ref))
}

func (m *model) pop() {
	if len(m.ref) == 0 {
		return
	}
	if got := *m.r.Pop(); got != m.ref[0] {
		m.t.Fatalf("Pop = %d, want %d", got, m.ref[0])
	}
	m.gone[m.ref[0]] = true
	m.ref = m.ref[1:]
}

func (m *model) at(i int) {
	if len(m.ref) == 0 {
		return
	}
	i %= len(m.ref)
	if got := *m.r.At(i); got != m.ref[i] {
		m.t.Fatalf("At(%d) = %d, want %d", i, got, m.ref[i])
	}
}

// verify checks Len, full and the storage bounds after every operation:
// storage never exceeds the bound, and never exceeds what the peak length
// needed from the eager size by doubling.
func (m *model) verify() {
	if m.r.Len() != len(m.ref) {
		m.t.Fatalf("Len = %d, want %d", m.r.Len(), len(m.ref))
	}
	if want := m.r.bound > 0 && len(m.ref) == m.r.bound; m.r.full() != want {
		m.t.Fatalf("full = %v at Len %d, bound %d", m.r.full(), len(m.ref), m.r.bound)
	}
	if b := m.r.bound; b > 0 && len(m.r.buf) > b {
		m.t.Fatalf("storage %d slots, bound %d", len(m.r.buf), b)
	}
	if len(m.r.buf) > max(m.size, 2*m.peak-1) {
		m.t.Fatalf("storage %d slots for a peak of %d (eager size %d)", len(m.r.buf), m.peak, m.size)
	}
}

// TestRingMatchesSlice drives random Push / Pop / At sequences against a
// slice-backed reference at every bound and eager size. Pushes come in
// bursts and pops in drains, so the ring empties to a few elements with its
// head anywhere and then outgrows its storage from there: growth while
// wrapped is asserted to have happened.
func TestRingMatchesSlice(t *testing.T) {
	grows := 0
	for _, bound := range []int{0, 1, 7, 8, 1000} {
		for _, size := range []int{0, 8, 256} {
			m := newModel(t, bound, size)
			r := rand.New(rand.NewSource(int64(bound*1000 + size)))
			for i := 0; i < 6000; i++ {
				pushShare := []int{3, 7}[i/300%2]
				switch op := r.Intn(10); {
				case op < pushShare:
					m.push()
				case op < 9:
					m.pop()
				default:
					m.at(r.Intn(1 << 20))
				}
				m.verify()
				for k := range m.ref {
					m.at(k)
				}
			}
			grows += m.grows
		}
	}
	if grows == 0 {
		t.Fatal("no sequence grew the ring while it was wrapped")
	}
}

// A ring that never pops keeps storage order equal to arrival order until
// it wraps; after that storage slot k holds the newest element whose arrival
// index is k modulo the bound. The replay buffer samples by Slot and relies
// on exactly this layout.
func TestSlotOrder(t *testing.T) {
	const bound = 8
	r := New[int](bound, 0)
	for v := 1; v <= 13; v++ {
		*r.Push() = v
		for k := 0; k < r.Len(); k++ {
			want := k + 1
			if v > bound && k < v-bound {
				want += bound
			}
			if got := *r.Slot(k); got != want {
				t.Fatalf("after %d pushes: Slot(%d) = %d, want %d", v, k, got, want)
			}
		}
	}
	if len(r.buf) != bound {
		t.Fatalf("full ring holds %d slots, want %d", len(r.buf), bound)
	}
}

// Slots keep their last tenant: what a popped element owned is there for
// the next Push of that slot to reuse.
func TestSlotsKeepLastTenant(t *testing.T) {
	r := New[[]int](0, 4)
	for i := 0; i < 4; i++ {
		*r.Push() = make([]int, 0, 10+i)
	}
	r.Pop()
	r.Pop()
	for i := 0; i < 2; i++ {
		if s := r.Push(); cap(*s) != 10+i {
			t.Fatalf("push %d got a slot with cap %d, want the popped tenant's %d", i, cap(*s), 10+i)
		}
	}
}

func TestStorage(t *testing.T) {
	if r := New[int](5, 0); len(r.buf) != 0 {
		t.Fatalf("size 0 allocated %d slots", len(r.buf))
	}
	if r := New[int](5, 64); len(r.buf) != 5 {
		t.Fatalf("eager size above the bound allocated %d slots, want 5", len(r.buf))
	}
	var zero Ring[int]
	for i := 0; i < 5; i++ {
		*zero.Push() = i
	}
	if len(zero.buf) != 8 {
		t.Fatalf("zero ring grew 1, 2, 4, 8 to %d slots", len(zero.buf))
	}
	for _, tc := range []struct{ bound, size int }{{-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d, %d) must panic", tc.bound, tc.size)
				}
			}()
			New[int](tc.bound, tc.size)
		}()
	}
}

func TestOutOfRangePanics(t *testing.T) {
	r := New[int](0, 4)
	*r.Push() = 1
	for name, fn := range map[string]func(){
		"At(-1)":   func() { r.At(-1) },
		"At(1)":    func() { r.At(1) },
		"Slot(1)":  func() { r.Slot(1) },
		"Pop(0)":   func() { r.Pop(); r.Pop() },
		"zero Pop": func() { var z Ring[int]; z.Pop() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s must panic", name)
				}
			}()
			fn()
		}()
	}
}

// Once storage covers the live set, Push and Pop allocate nothing: a full
// bounded ring overwrites in place, and an unbounded one at a steady length
// reuses its slots.
func TestSteadyStateAllocFree(t *testing.T) {
	full := New[int](16, 0)
	for i := 0; i < 40; i++ {
		*full.Push() = i
	}
	if a := testing.AllocsPerRun(100, func() { *full.Push() = 1 }); a != 0 {
		t.Fatalf("full-ring Push allocates %v/op", a)
	}
	var q Ring[int]
	for i := 0; i < 100; i++ {
		*q.Push() = i
	}
	slots := len(q.buf)
	if a := testing.AllocsPerRun(1000, func() { *q.Push() = 1; q.Pop() }); a != 0 || len(q.buf) != slots {
		t.Fatalf("steady push/pop allocates %v/op, storage %d -> %d slots", a, slots, len(q.buf))
	}
}

// A Reset ring — wrapped, full and bounded, or grown and unbounded — holds
// nothing, keeps its storage and bound, has zeroed every slot, and then
// behaves as a fresh one: pushes land in storage order from slot 0 and
// allocate nothing until they outgrow what the ring kept.
func TestReset(t *testing.T) {
	for _, bound := range []int{0, 6} {
		r := New[int](bound, 0)
		for i := 1; i <= 9; i++ {
			*r.Push() = i
		}
		r.Pop()
		slots := len(r.buf)
		r.Reset()
		if r.Len() != 0 || len(r.buf) != slots || r.bound != bound {
			t.Fatalf("bound %d: after Reset Len %d, %d slots (had %d), bound %d", bound, r.Len(), len(r.buf), slots, r.bound)
		}
		for k, v := range r.buf {
			if v != 0 {
				t.Fatalf("bound %d: slot %d still holds %d", bound, k, v)
			}
		}
		next := 0
		if a := testing.AllocsPerRun(1, func() { // runs twice: four pushes
			for i := 0; i < 2; i++ {
				next++
				*r.Push() = next
			}
		}); a != 0 {
			t.Fatalf("bound %d: pushes into kept storage allocate %v", bound, a)
		}
		for k := 0; k < r.Len(); k++ {
			if *r.Slot(k) != *r.At(k) || *r.At(k) != k+1 {
				t.Fatalf("bound %d: slot %d = %d, element %d = %d, want %d for both", bound, k, *r.Slot(k), k, *r.At(k), k+1)
			}
		}
	}
}

// FuzzRingOps runs a mutated operation sequence through the same model:
// each byte is one operation, its low two bits the kind.
func FuzzRingOps(f *testing.F) {
	f.Add(uint16(0), uint16(0), []byte{0, 0, 0, 1, 1, 0, 0, 0, 0, 2, 1})
	f.Add(uint16(3), uint16(8), []byte{0, 0, 0, 0, 0, 1, 6, 0, 1, 1, 1, 1, 1})
	f.Add(uint16(1), uint16(0), []byte{0, 0, 1, 0, 10})
	f.Fuzz(func(t *testing.T, bound, size uint16, ops []byte) {
		m := newModel(t, int(bound%64), int(size%64))
		for _, op := range ops {
			switch op & 3 {
			case 0, 3:
				m.push()
			case 1:
				m.pop()
			case 2:
				m.at(int(op >> 2))
			}
			m.verify()
		}
	})
}
