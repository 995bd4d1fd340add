package telemetry

import (
	"math"
	"math/rand"
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *cluster.Cluster, *cluster.Container) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(eng, cfg)
	cl.AddNode(cluster.XeonProfile)
	rs, err := cl.DeployService("svc", 1, cluster.V(2, 1000, 4, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, rs.Pick()
}

func TestCollectorSamples(t *testing.T) {
	eng, cl, c := setup(t)
	col := NewCollector(eng, cl, 100*sim.Millisecond, 100)
	col.Start()
	c.Submit(cluster.Work{Base: sim.Second, Demand: cluster.V(1, 500, 1, 0, 0)})
	eng.RunUntil(sim.FromMillis(550))
	s, ok := col.Latest(c.ID)
	if !ok {
		t.Fatal("no sample")
	}
	if math.Abs(s.Util()[cluster.CPU]-0.5) > 1e-9 {
		t.Fatalf("cpu util %v, want 0.5", s.Util()[cluster.CPU])
	}
	if s.Busy != 1 {
		t.Fatalf("busy = %d", s.Busy)
	}
	w := col.Window(c.ID, 0)
	if len(w) != 5 {
		t.Fatalf("window has %d samples, want 5", len(w))
	}
	w2 := col.Window(c.ID, sim.FromMillis(300))
	if len(w2) != 3 {
		t.Fatalf("since-filtered window: %d, want 3", len(w2))
	}
	col.Stop()
	eng.RunUntil(2 * sim.Second)
	after := col.Window(c.ID, 0)
	if len(after) != 5 {
		t.Fatal("collector sampled after Stop")
	}
}

func TestNodeSamples(t *testing.T) {
	eng, cl, c := setup(t)
	col := NewCollector(eng, cl, 100*sim.Millisecond, 100)
	col.Start()
	c.Submit(cluster.Work{Base: sim.Second, Demand: cluster.V(1, 800, 0, 0, 0)})
	eng.RunUntil(sim.FromMillis(350))
	ns := col.NodeWindow(cl.Nodes()[0].ID, 0)
	if len(ns) == 0 {
		t.Fatal("no node samples")
	}
	if ns[len(ns)-1].PerCoreDRAM <= 0 {
		t.Fatal("per-core DRAM proxy should be positive under load")
	}
	if ns[len(ns)-1].CPUAllocated != 2 {
		t.Fatalf("cpu allocated = %v", ns[len(ns)-1].CPUAllocated)
	}
}

func TestSeriesBounded(t *testing.T) {
	eng, cl, c := setup(t)
	col := NewCollector(eng, cl, 10*sim.Millisecond, 5)
	col.Start()
	eng.RunUntil(sim.Second)
	if n := len(col.Window(c.ID, 0)); n != 5 {
		t.Fatalf("series grew to %d, cap 5", n)
	}
}

func TestMeterRateAndChange(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(eng, sim.Second, []string{"a", "b"})
	// 10 arrivals in the first second, 20 in the second.
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(sim.Time(i)*100*sim.Millisecond, func() { m.Record("a") })
	}
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(sim.Second+sim.Time(i)*50*sim.Millisecond, func() { m.Record("b") })
	}
	eng.RunUntil(2 * sim.Second)
	if r := m.Rate(); math.Abs(r-20) > 1.01 {
		t.Fatalf("rate = %v, want ≈20", r)
	}
	if p := m.PrevRate(); math.Abs(p-10) > 1.01 {
		t.Fatalf("prev rate = %v, want ≈10", p)
	}
	wc := m.WorkloadChange()
	if wc < 1.5 || wc > 2.5 {
		t.Fatalf("workload change = %v, want ≈2", wc)
	}
}

// TestMeterSteadyStateAllocFree: under a steady arrival stream the meter
// stops allocating — expired arrivals free their slots for new ones — and
// the rates read while the arrival ring wraps stay exact.
func TestMeterSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(eng, sim.Second, []string{"a"})
	step := func() {
		eng.RunFor(10 * sim.Millisecond)
		m.Record("a")
	}
	for i := 0; i < 1000; i++ { // ten seconds: five times the retention
		step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		step()
		// The current window is closed at both ends, the previous half-open.
		if r, p := m.Rate(), m.PrevRate(); r != 101 || p != 100 {
			t.Fatalf("rate = %v, prev rate = %v, want 101 and 100", r, p)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state allocs/op = %v, want 0", allocs)
	}
}

func TestMeterWorkloadChangeNoHistory(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(eng, sim.Second, []string{"a"})
	if m.WorkloadChange() != 1 {
		t.Fatal("no history must yield WC=1")
	}
}

func TestMeterComposition(t *testing.T) {
	eng := sim.NewEngine(1)
	m := NewMeter(eng, sim.Second, []string{"a", "b"})
	for i := 0; i < 30; i++ {
		typ := "a"
		if i%3 == 0 {
			typ = "b"
		}
		tt, i := typ, i
		eng.Schedule(sim.Time(i)*10*sim.Millisecond, func() { m.Record(tt) })
	}
	eng.RunUntil(500 * sim.Millisecond)
	comp := m.Composition()
	if len(comp) != 2 {
		t.Fatalf("composition len %d", len(comp))
	}
	if math.Abs(comp[0]-2.0/3) > 0.05 || math.Abs(comp[1]-1.0/3) > 0.05 {
		t.Fatalf("composition = %v", comp)
	}
	code := m.CompositionCode(8)
	if code < 0 || code > 1 {
		t.Fatalf("composition code %v out of [0,1]", code)
	}
	// Unknown types are ignored.
	m.Record("zzz")
	comp2 := m.Composition()
	if math.Abs(comp2[0]+comp2[1]-1) > 1e-9 {
		t.Fatalf("unknown type leaked into composition: %v", comp2)
	}
}

func TestCompositionCodeDistinguishesMixes(t *testing.T) {
	eng := sim.NewEngine(1)
	mk := func(aShare float64) float64 {
		m := NewMeter(eng, sim.Second, []string{"a", "b"})
		for i := 0; i < 100; i++ {
			typ := "b"
			if float64(i) < aShare*100 {
				typ = "a"
			}
			m.Record(typ)
		}
		return m.CompositionCode(16)
	}
	if mk(0.9) == mk(0.1) {
		t.Fatal("different mixes must encode differently")
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	eng := sim.NewEngine(1)
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("want panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewCollector(eng, nil, 0, 10) })
	mustPanic(func() { NewMeter(eng, 0, nil) })
}

// TestCollectorWindowAcrossWrap checks the since-filter against a wrapped
// ring: binary search runs over the virtual (time) order, not the raw
// backing array.
func TestCollectorWindowAcrossWrap(t *testing.T) {
	eng, cl, c := setup(t)
	col := NewCollector(eng, cl, 100*sim.Millisecond, 5)
	col.Start()
	eng.RunUntil(sim.FromMillis(1250)) // 12 samples into a 5-cap ring
	w := col.Window(c.ID, 0)
	if len(w) != 5 {
		t.Fatalf("window has %d samples, want 5", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i].At <= w[i-1].At {
			t.Fatalf("window out of time order at %d: %v after %v", i, w[i].At, w[i-1].At)
		}
	}
	since := w[3].At
	if got := col.Window(c.ID, since); len(got) != 2 || got[0].At != since {
		t.Fatalf("since-filtered window = %d samples starting %v, want 2 starting %v", len(got), got[0].At, since)
	}
	if got := col.Window(c.ID, w[4].At+1); len(got) != 0 {
		t.Fatalf("window past the newest sample = %v, want no data", got)
	}
}

// TestSampleUtilMatchesContainer: Sample keeps Usage and Limits, not their
// ratio, so Util() must equal what Container.Utilization() returned at
// sampling time bit for bit — over random work, limits (zero limits
// included, so Div's o[i] > 0 branch is taken both ways), injected demand,
// and a replica set scaled to zero and back.
func TestSampleUtilMatchesContainer(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.MinLimit = cluster.Vector{} // let limits reach 0
	cl := cluster.New(eng, cfg)
	cl.AddNode(cluster.XeonProfile)
	rs, err := cl.DeployService("svc", 2, cluster.V(2, 1000, 4, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector(eng, cl, sim.Second, 8)
	vec := func(scale cluster.Vector) cluster.Vector {
		var v cluster.Vector
		for i := range v {
			if r.Intn(4) != 0 {
				v[i] = r.Float64() * scale[i]
			}
		}
		return v
	}
	scale := cluster.V(4, 2000, 8, 200, 200)
	retired := map[*cluster.Container]cluster.Vector{} // last sampled Utilization
	zeroLimits, sampled := 0, 0
	same := func(a, b cluster.Vector) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for step := 0; step < 2000; step++ {
		cts := rs.Containers()
		switch op := r.Intn(10); {
		case op < 4 && len(cts) > 0:
			cts[r.Intn(len(cts))].Submit(cluster.Work{
				Base: sim.Time(1+r.Intn(500)) * sim.Millisecond, Demand: vec(scale)})
		case op < 6 && len(cts) > 0:
			cts[r.Intn(len(cts))].SetLimits(vec(scale))
		case op < 8 && len(cts) > 0:
			cts[r.Intn(len(cts))].SetInjectedLoad(vec(scale))
		case op == 8 && len(cts) > 0: // scale to zero
			for _, c := range append([]*cluster.Container(nil), cts...) {
				retired[c] = c.Utilization()
				rs.RemoveReplica(c)
			}
		case len(cts) < 4:
			if _, err := rs.AddReplica(vec(scale), false, true); err != nil {
				t.Fatal(err)
			}
		}
		eng.RunUntil(eng.Now() + sim.Time(r.Intn(50))*sim.Millisecond)
		col.SampleNow()
		for _, c := range rs.Containers() {
			s, ok := col.Latest(c.ID)
			if !ok {
				t.Fatalf("step %d: container %d not sampled", step, c.ID)
			}
			if want := c.Utilization(); !same(s.Util(), want) {
				t.Fatalf("step %d: Sample.Util() = %v, Container.Utilization() = %v", step, s.Util(), want)
			}
			for _, l := range s.Limits {
				if l == 0 {
					zeroLimits++
				}
			}
			sampled++
		}
	}
	for c, want := range retired {
		if s, ok := col.Latest(c.ID); !ok || !same(s.Util(), want) {
			t.Fatalf("retired container %d: Sample.Util() = %v, last Utilization() = %v", c.ID, s.Util(), want)
		}
	}
	if zeroLimits == 0 || len(retired) == 0 || sampled < 1000 {
		t.Fatalf("coverage: %d zero limits, %d retired containers, %d samples", zeroLimits, len(retired), sampled)
	}
}
