package injector

import (
	"errors"
	"math"
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
)

func setup(t *testing.T) (*sim.Engine, *cluster.Cluster, *cluster.Container, *Injector) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(eng, cfg)
	cl.AddNode(cluster.XeonProfile)
	rs, err := cl.DeployService("victim", 1, cluster.V(2, 1000, 4, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	return eng, cl, rs.Pick(), New(eng, 7)
}

func TestKindNames(t *testing.T) {
	if NumKinds != 7 {
		t.Fatalf("Table 5 lists 7 anomaly types, have %d", NumKinds)
	}
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		if seen[k.String()] {
			t.Fatalf("duplicate kind name %s", k)
		}
		seen[k.String()] = true
	}
	if Kind(99).String() != "kind(99)" {
		t.Fatal("out-of-range name")
	}
}

func TestResourceStressAppliesAndExpires(t *testing.T) {
	eng, _, c, in := setup(t)
	in.Inject(Injection{Kind: MemBWStress, Target: c, Intensity: 1, Duration: sim.Second})
	if got := c.InjectedLoad()[cluster.MemBW]; got != 2.5*1000 {
		t.Fatalf("injected membw = %v, want 2500 (2.5x limit)", got)
	}
	if len(in.active) != 1 {
		t.Fatal("injection not active")
	}
	eng.RunUntil(2 * sim.Second)
	if got := c.InjectedLoad()[cluster.MemBW]; got != 0 {
		t.Fatalf("injection did not expire: %v", got)
	}
	if len(in.active) != 0 {
		t.Fatal("active count not cleared")
	}
}

func TestEarlyStopIdempotent(t *testing.T) {
	eng, _, c, in := setup(t)
	stop, err := in.Inject(Injection{Kind: CPUStress, Target: c, Intensity: 0.5, Duration: sim.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if c.InjectedLoad()[cluster.CPU] == 0 {
		t.Fatal("cpu stress not applied")
	}
	stop()
	stop() // second call is a no-op
	if c.InjectedLoad()[cluster.CPU] != 0 {
		t.Fatal("early stop did not clean up")
	}
	eng.RunUntil(2 * sim.Minute) // scheduled expiry must not double-revert
	if c.InjectedLoad()[cluster.CPU] != 0 {
		t.Fatal("double revert")
	}
	recs := in.History()
	if len(recs) != 1 || recs[0].End != 0 {
		t.Fatalf("history end not clamped to stop time: %+v", recs)
	}
}

func TestNetworkDelayInjection(t *testing.T) {
	eng, _, c, in := setup(t)
	in.Inject(Injection{Kind: NetworkDelay, Target: c, Intensity: 0.5, Duration: sim.Second})
	want := sim.Time(float64(80*sim.Millisecond) * 0.5)
	if c.NetDelay() != want {
		t.Fatalf("net delay %v, want %v", c.NetDelay(), want)
	}
	eng.RunUntil(2 * sim.Second)
	if c.NetDelay() != 0 {
		t.Fatal("delay not reverted")
	}
}

func TestWorkloadSpikeHook(t *testing.T) {
	_, _, _, in := setup(t)
	var gotIntensity float64
	var gotDur sim.Time
	in.SpikeHook = func(i float64, d sim.Time) { gotIntensity, gotDur = i, d }
	in.Inject(Injection{Kind: Workload, Intensity: 0.8, Duration: 5 * sim.Second})
	if gotIntensity != 0.8 || gotDur != 5*sim.Second {
		t.Fatalf("hook got (%v, %v)", gotIntensity, gotDur)
	}
}

// TestInjectRejectsInvalid is the table-driven rejection suite: garbage
// injections must come back as *ValidationError naming the offending field,
// actuate nothing, and leave no history record.
func TestInjectRejectsInvalid(t *testing.T) {
	_, _, c, in := setup(t)
	cases := []struct {
		name  string
		inj   Injection
		field string
	}{
		{"intensity above 1", Injection{Kind: IOStress, Target: c, Intensity: 5, Duration: sim.Second}, "Intensity"},
		{"negative intensity", Injection{Kind: CPUStress, Target: c, Intensity: -0.1, Duration: sim.Second}, "Intensity"},
		{"NaN intensity", Injection{Kind: CPUStress, Target: c, Intensity: math.NaN(), Duration: sim.Second}, "Intensity"},
		{"zero duration", Injection{Kind: CPUStress, Target: c, Intensity: 0.5}, "Duration"},
		{"negative duration", Injection{Kind: MemBWStress, Target: c, Intensity: 0.5, Duration: -sim.Second}, "Duration"},
		{"nil target for cpu", Injection{Kind: CPUStress, Intensity: 0.5, Duration: sim.Second}, "Target"},
		{"nil target for net-delay", Injection{Kind: NetworkDelay, Intensity: 0.5, Duration: sim.Second}, "Target"},
		{"kind below range", Injection{Kind: Kind(-1), Target: c, Intensity: 0.5, Duration: sim.Second}, "Kind"},
		{"kind above range", Injection{Kind: NumKinds, Target: c, Intensity: 0.5, Duration: sim.Second}, "Kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stop, err := in.Inject(tc.inj)
			if err == nil {
				t.Fatal("invalid injection accepted")
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error %T is not a *ValidationError", err)
			}
			if ve.Field != tc.field {
				t.Fatalf("rejected field %q, want %q", ve.Field, tc.field)
			}
			if stop != nil {
				t.Fatal("rejected injection returned a cancel func")
			}
		})
	}
	if got := c.InjectedLoad(); got != (cluster.Vector{}) {
		t.Fatalf("rejected injections actuated load %v", got)
	}
	if c.NetDelay() != 0 {
		t.Fatal("rejected injections actuated net delay")
	}
	if n := len(in.History()); n != 0 {
		t.Fatalf("rejected injections left %d history records", n)
	}
	// Record applies the same validation.
	if _, err := in.Record(Injection{Kind: CPUStress, Intensity: 0.5, Duration: sim.Second}); err == nil {
		t.Fatal("Record accepted a nil target")
	}
	// Workload is the one kind that is legitimately cluster-wide.
	if _, err := in.Inject(Injection{Kind: Workload, Intensity: 0.5, Duration: sim.Second}); err != nil {
		t.Fatalf("valid workload injection rejected: %v", err)
	}
}

func TestGroundTruthQueries(t *testing.T) {
	eng, _, c, in := setup(t)
	in.Inject(Injection{Kind: LLCStress, Target: c, Intensity: 1, Duration: 10 * sim.Second})
	eng.RunUntil(5 * sim.Second)
	if k, ok := activeAt(in, 5*sim.Second)[c.ID]; !ok || k != LLCStress {
		t.Fatalf("instant query missing container: %v", activeAt(in, 5*sim.Second))
	}
	if len(activeAt(in, 20*sim.Second)) != 0 {
		t.Fatal("expired injection still reported")
	}
	if len(in.ActiveDuringOverlap(0, sim.Second, 0)) != 1 {
		t.Fatal("overlap query start")
	}
	if len(in.ActiveDuringOverlap(11*sim.Second, 12*sim.Second, 0)) != 0 {
		t.Fatal("overlap query after end")
	}
}

// activeAt is the instances under injection at the instant ts.
func activeAt(in *Injector, ts sim.Time) map[uint32]Kind {
	return in.ActiveDuringOverlap(ts, ts+1, 0)
}

func TestConcurrentInjectionsCompose(t *testing.T) {
	eng, _, c, in := setup(t)
	in.Inject(Injection{Kind: MemBWStress, Target: c, Intensity: 0.5, Duration: 2 * sim.Second})
	in.Inject(Injection{Kind: MemBWStress, Target: c, Intensity: 0.5, Duration: 4 * sim.Second})
	want := 2 * 0.5 * 2.5 * 1000.0
	if got := c.InjectedLoad()[cluster.MemBW]; got != want {
		t.Fatalf("stacked load %v, want %v", got, want)
	}
	eng.RunUntil(3 * sim.Second)
	if got := c.InjectedLoad()[cluster.MemBW]; got != want/2 {
		t.Fatalf("after first expiry %v, want %v", got, want/2)
	}
	eng.RunUntil(5 * sim.Second)
	if got := c.InjectedLoad()[cluster.MemBW]; got != 0 {
		t.Fatalf("after both expire %v", got)
	}
}

// TestOverlappingInjectionsGroundTruth pins the overlap semantics two
// anomalies on one container must keep: load composes additively and
// reverts piecewise as each ends, and the history windows label the target
// with the kind whose interval actually covers the queried time — including
// after an early stop clamps one record but not the other.
func TestOverlappingInjectionsGroundTruth(t *testing.T) {
	eng, _, c, in := setup(t)
	// [0s, 6s) membw; [2s, 10s) llc — overlapping on the same container.
	if _, err := in.Inject(Injection{Kind: MemBWStress, Target: c, Intensity: 0.4, Duration: 6 * sim.Second}); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * sim.Second)
	stopLLC, err := in.Inject(Injection{Kind: LLCStress, Target: c, Intensity: 0.8, Duration: 8 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	wantMem := 0.4 * 2.5 * 1000.0 // intensity × LoadScale × membw limit
	wantLLC := 0.8 * 2.5 * 4.0    // intensity × LoadScale × llc limit
	if got := c.InjectedLoad(); got[cluster.MemBW] != wantMem || got[cluster.LLC] != wantLLC {
		t.Fatalf("overlapped load %v, want membw %v llc %v", got, wantMem, wantLLC)
	}

	// During the overlap both kinds are active on the instance; the
	// per-service map keeps one kind per service (later record wins).
	inst := activeAt(in, 3*sim.Second)
	if inst[c.ID] != LLCStress {
		t.Fatalf("active at 3s, in the overlap = %v", inst)
	}
	if got := in.ActiveDuringOverlap(2*sim.Second, 6*sim.Second, sim.Second); got[c.ID] != LLCStress {
		t.Fatalf("ActiveDuringOverlap = %v", got)
	}
	// A window overlapping only the membw interval sees only membw.
	if got := in.ActiveDuringOverlap(0, 2*sim.Second, sim.Second); got[c.ID] != MemBWStress {
		t.Fatalf("pre-overlap window = %v", got)
	}

	// First injection expires: its load component reverts, the other stays.
	eng.RunUntil(7 * sim.Second)
	if got := c.InjectedLoad(); got[cluster.MemBW] != 0 || got[cluster.LLC] != wantLLC {
		t.Fatalf("after membw expiry load %v", got)
	}
	// Early-stop the second at 7s: its record must clamp to 7s while the
	// first record keeps its full [0s, 6s) window.
	stopLLC()
	recs := in.History()
	if len(recs) != 2 {
		t.Fatalf("history has %d records, want 2", len(recs))
	}
	if recs[0].Start != 0 || recs[0].End != 6*sim.Second {
		t.Fatalf("membw window [%v, %v), want [0s, 6s)", recs[0].Start, recs[0].End)
	}
	if recs[1].Start != 2*sim.Second || recs[1].End != 7*sim.Second {
		t.Fatalf("llc window [%v, %v), want [2s, 7s)", recs[1].Start, recs[1].End)
	}
	if got := c.InjectedLoad(); got != (cluster.Vector{}) {
		t.Fatalf("load after both ended: %v", got)
	}
	if len(activeAt(in, 8*sim.Second)) != 0 {
		t.Fatal("clamped record still reported active")
	}
}

func TestCampaignFiresInjections(t *testing.T) {
	eng, _, c, in := setup(t)
	camp := DefaultCampaign(in, []*cluster.Container{c})
	camp.Start()
	eng.RunUntil(60 * sim.Second)
	n := len(in.History())
	// λ=0.33/s → ~20 injections in 60s; allow wide tolerance.
	if n < 8 || n > 40 {
		t.Fatalf("campaign fired %d injections in 60s, want ≈20", n)
	}
	camp.Stop()
	eng.RunUntil(120 * sim.Second)
	if after := len(in.History()); after != n {
		t.Fatalf("campaign fired after Stop: %d -> %d", n, after)
	}
	// All injections target the victim and respect configured bounds.
	for _, r := range in.History() {
		if r.Target != c {
			t.Fatal("wrong target")
		}
		if r.Intensity < 0.4 || r.Intensity > 1.0 {
			t.Fatalf("intensity %v out of bounds", r.Intensity)
		}
		if r.Kind == Workload {
			t.Fatal("default campaign must skip workload kind")
		}
	}
}

func TestCampaignEmptyTargets(t *testing.T) {
	eng, _, _, in := setup(t)
	camp := DefaultCampaign(in, nil)
	camp.Start() // must not panic or schedule anything
	eng.RunUntil(10 * sim.Second)
	if len(in.History()) != 0 {
		t.Fatal("no targets must mean no injections")
	}
}

func TestInjectionSlowsVictim(t *testing.T) {
	eng, _, c, in := setup(t)
	var clean sim.Time
	c.Submit(cluster.Work{Base: 10 * sim.Millisecond, Demand: cluster.V(1, 500, 0, 0, 0),
		Handler: cluster.WorkFuncs{Done: func(q, p sim.Time) { clean = p }}})
	eng.RunUntil(sim.Second)
	in.Inject(Injection{Kind: MemBWStress, Target: c, Intensity: 1, Duration: 10 * sim.Second})
	var stressed sim.Time
	c.Submit(cluster.Work{Base: 10 * sim.Millisecond, Demand: cluster.V(1, 500, 0, 0, 0),
		Handler: cluster.WorkFuncs{Done: func(q, p sim.Time) { stressed = p }}})
	eng.RunUntil(2 * sim.Second)
	if stressed <= clean {
		t.Fatalf("membw anomaly must slow victim: %v vs %v", clean, stressed)
	}
}
