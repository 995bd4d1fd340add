package scenario

import (
	"strings"
	"testing"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/injector"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// twoTier builds a minimal client->frontend->backend spec so cascade and
// partition edges are predictable.
func twoTier() *topology.Spec {
	leaf := &topology.Call{Service: "backend", Compute: 2 * sim.Millisecond}
	root := &topology.Call{Service: "frontend", Compute: 1 * sim.Millisecond,
		Children: []topology.Child{{Mode: topology.Seq, Call: leaf}}}
	mk := func(name string) *topology.Service {
		return &topology.Service{Name: name, Class: topology.Logic, Replicas: 1,
			Demand: cluster.V(1, 150, 0.5, 5, 80),
			Limits: cluster.V(2, 600, 2, 50, 300)}
	}
	return &topology.Spec{
		Name: "twotier",
		Services: map[string]*topology.Service{
			"frontend": mk("frontend"),
			"backend":  mk("backend"),
		},
		Endpoints:    []topology.Endpoint{{Name: "get", Weight: 1, Root: root}},
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}
}

// testEnv deploys spec on a fresh 4-node cluster and returns a fully
// wired Env (app + injector).
func testEnv(t *testing.T, spec *topology.Spec, seed int64) Env {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(eng, cfg)
	for i := 0; i < 4; i++ {
		cl.AddNode(cluster.XeonProfile)
	}
	db := tracedb.New(10000)
	coord := trace.NewCoordinator(eng, db, cl)
	a, err := app.Deploy(eng, cl, spec, coord)
	if err != nil {
		t.Fatal(err)
	}
	return Env{Eng: eng, Cluster: cl, Spec: spec, Injector: injector.New(eng, seed), App: a}
}

func TestCatalogKeysStableUniqueValid(t *testing.T) {
	seen := map[string]string{}
	for _, e := range Catalog() {
		sc := e.Build(30 * sim.Second)
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		key := sc.Key()
		if strings.Contains(key, "/") {
			t.Fatalf("%s: key %q contains '/'", e.Name, key)
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("key %q shared by %s and %s", key, prev, e.Name)
		}
		seen[key] = e.Name
		if again := e.Build(30 * sim.Second).Key(); again != key {
			t.Fatalf("%s: key not stable: %q vs %q", e.Name, key, again)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []*Spec{
		Mode(MemLeak, 0, 10*sim.Second),                       // zero intensity
		Mode(MemLeak, 1.5, 10*sim.Second),                     // >1
		Mode(Plateau, 0.5, 0),                                 // zero duration
		Mode(Family(99), 0.5, sim.Second),                     // unknown family
		Mode(Cascade, 0.5, sim.Second).WithProb(2),            // bad prob
		Mode(Plateau, 0.5, sim.Second).On("a/b"),              // slash in target
		Sequence(0),                                           // empty composition
		Sequence(-sim.Second, Mode(Plateau, 0.5, sim.Second)), // negative gap
		Mode(Plateau, 0.5, sim.Second).After(-sim.Second),     // negative offset
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: expected rejection, got nil (key %s)", i, sc.Key())
		}
	}
}

func TestCompositionTiming(t *testing.T) {
	a := Mode(Plateau, 0.5, 10*sim.Second)
	b := Mode(MemLeak, 0.5, 20*sim.Second)
	c := Mode(Partition, 0.5, 5*sim.Second)
	sc := Sequence(2*sim.Second, a, Overlay(b, c.After(3*sim.Second)))
	atoms := sc.Atoms()
	if len(atoms) != 3 {
		t.Fatalf("got %d atoms", len(atoms))
	}
	wantStarts := []sim.Time{0, 12 * sim.Second, 15 * sim.Second}
	for i, w := range wantStarts {
		if atoms[i].Start != w {
			t.Errorf("atom %d starts at %v, want %v", i, atoms[i].Start, w)
		}
	}
	// seq span = 10 + gap 2 + overlay span max(20, 3+5) = 32s.
	if sc.Span() != 32*sim.Second {
		t.Fatalf("span %v, want 32s", sc.Span())
	}
}

func TestLeakRampsAndCrashLoops(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	p, err := NewPlayer(env, Mode(MemLeak, 0.8, 6*sim.Second).On("backend"), 1)
	if err != nil {
		t.Fatal(err)
	}
	first := env.Cluster.ReplicaSet("backend").Containers()[0]
	p.Arm()

	var early, late float64
	env.Eng.Schedule(500*sim.Millisecond, func() {
		early = env.Cluster.ReplicaSet("backend").Containers()[0].InjectedLoad()[cluster.MemBW]
	})
	env.Eng.Schedule(1900*sim.Millisecond, func() {
		late = env.Cluster.ReplicaSet("backend").Containers()[0].InjectedLoad()[cluster.MemBW]
	})
	env.Eng.RunUntil(8 * sim.Second)

	if !(early > 0 && late > early) {
		t.Fatalf("leak should ramp: early=%v late=%v", early, late)
	}
	if p.OOMKills != leakCycles-1 {
		t.Fatalf("OOMKills = %d, want %d", p.OOMKills, leakCycles-1)
	}
	survivor := env.Cluster.ReplicaSet("backend").Containers()[0]
	if survivor == first {
		t.Fatal("victim container should have been recycled by the OOM killer")
	}
	if got := survivor.InjectedLoad(); got != (cluster.Vector{}) {
		t.Fatalf("load should clear at scenario end: %v", got)
	}
	recs := env.Injector.History()
	if len(recs) != 1 || recs[0].Kind != injector.MemBWStress {
		t.Fatalf("history %v, want one membw record", recs)
	}
}

func TestMetastableReleasesWhenIdle(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	p, err := NewPlayer(env, Mode(Metastable, 0.8, 9*sim.Second).On("backend"), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Arm()
	env.Eng.RunUntil(11 * sim.Second)
	c := env.Cluster.ReplicaSet("backend").Containers()[0]
	if got := c.InjectedLoad(); got != (cluster.Vector{}) {
		t.Fatalf("idle victim should escape the metastable state: %v", got)
	}
	recs := env.Injector.History()
	if len(recs) != 1 {
		t.Fatalf("history %v", recs)
	}
	// Trigger is the first third (3s); release should clamp the record well
	// before the 9s hard end.
	if end := recs[0].End; end > 5*sim.Second {
		t.Fatalf("record end %v, want early release after the 3s trigger", end)
	}
}

func TestMetastablePinnedUnderLoad(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	c := env.Cluster.ReplicaSet("backend").Containers()[0]
	// Standing external pressure: enough that trigger + feedback keeps
	// utilization above the sustain threshold.
	var base cluster.Vector
	base[cluster.CPU] = 0.5 * c.Limits()[cluster.CPU]
	c.SetInjectedLoad(base)
	p, err := NewPlayer(env, Mode(Metastable, 0.8, 9*sim.Second).On("backend"), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Arm()
	var midFeedback cluster.Vector
	env.Eng.Schedule(6*sim.Second, func() { midFeedback = c.InjectedLoad() })
	env.Eng.RunUntil(11 * sim.Second)
	if midFeedback[cluster.CPU] <= base[cluster.CPU] {
		t.Fatalf("feedback should pin load after the trigger clears: %v", midFeedback)
	}
	recs := env.Injector.History()
	if len(recs) != 1 || recs[0].End != 9*sim.Second {
		t.Fatalf("pinned metastable record should span the full window: %v", recs)
	}
	if got := c.InjectedLoad(); got != base {
		t.Fatalf("scenario end should restore the external base load: %v", got)
	}
}

func TestCascadeInfectsCallers(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	p, err := NewPlayer(env, Mode(Cascade, 0.8, 12*sim.Second).On("backend").WithProb(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Arm()
	env.Eng.RunUntil(14 * sim.Second)
	if p.Infections != 1 {
		t.Fatalf("Infections = %d, want 1 (frontend)", p.Infections)
	}
	bySvc := map[string]injector.Record{}
	for _, r := range env.Injector.History() {
		bySvc[r.Target.Service] = r
	}
	fr, ok := bySvc["frontend"]
	if !ok {
		t.Fatalf("frontend never infected: %v", bySvc)
	}
	bk := bySvc["backend"]
	if !(fr.Start > bk.Start) {
		t.Fatalf("infection (%v) should start after the root cause (%v)", fr.Start, bk.Start)
	}
	if fr.Intensity >= bk.Intensity {
		t.Fatalf("infection intensity %v should decay below %v", fr.Intensity, bk.Intensity)
	}
	for _, c := range env.Cluster.ReplicaSet("frontend").Containers() {
		if got := c.InjectedLoad(); got != (cluster.Vector{}) {
			t.Fatalf("infection load should clear at scenario end: %v", got)
		}
	}
}

func TestPartitionDegradesThenClears(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	p, err := NewPlayer(env, Mode(Partition, 0.9, 5*sim.Second).On("backend"), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Arm()
	var during, after app.Result
	env.Eng.Schedule(sim.Second, func() {
		env.App.Submit("get", func(r app.Result) { during = r })
	})
	env.Eng.Schedule(8*sim.Second, func() {
		env.App.Submit("get", func(r app.Result) { after = r })
	})
	env.Eng.RunUntil(12 * sim.Second)
	degraded := during.Dropped || during.Latency > after.Latency+100*sim.Millisecond
	if !degraded {
		t.Fatalf("partition should degrade the edge: during=%+v after=%+v", during, after)
	}
	if after.Dropped || after.Latency > 100*sim.Millisecond {
		t.Fatalf("partition should clear: %+v", after)
	}
}

func TestRetryStormArmsAndDisarms(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	p, err := NewPlayer(env, Mode(RetryStorm, 0.6, 5*sim.Second).On("backend"), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Arm()
	var mid *app.RetryPolicy
	env.Eng.Schedule(2*sim.Second, func() { mid = env.App.RetryPolicy() })
	env.Eng.RunUntil(7 * sim.Second)
	if mid == nil || mid.MaxRetries < 1 {
		t.Fatalf("retry policy should be armed mid-scenario: %+v", mid)
	}
	if env.App.RetryPolicy() != nil {
		t.Fatal("retry policy should disarm at scenario end")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []injector.Record {
		env := testEnv(t, topology.SocialNetwork(), seed)
		entry, ok := ByName("cascade-then-partition")
		if !ok {
			t.Fatal("catalog entry missing")
		}
		p, err := NewPlayer(env, entry.Build(20*sim.Second), seed)
		if err != nil {
			t.Fatal(err)
		}
		p.Arm()
		env.Eng.RunUntil(p.Horizon() + 2*sim.Second)
		return env.Injector.History()
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("runs differ in record count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target.ID != b[i].Target.ID || a[i].Start != b[i].Start ||
			a[i].End != b[i].End || a[i].Intensity != b[i].Intensity {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(run(8)) == 0 {
		t.Fatal("different seed should still produce records")
	}
}

func TestAdvanceAllocFree(t *testing.T) {
	env := testEnv(t, twoTier(), 1)
	sc := Overlay(
		Mode(MemLeak, 0.7, 30*sim.Second).On("backend"),
		Mode(Plateau, 0.6, 30*sim.Second).On("frontend"),
		Mode(Metastable, 0.8, 30*sim.Second).On("backend"),
	)
	p, err := NewPlayer(env, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Arm()
	env.Eng.RunUntil(2 * sim.Second) // all atoms active
	if n := testing.AllocsPerRun(200, p.StepNow); n != 0 {
		t.Fatalf("advance allocates %v/op, want 0", n)
	}
}
