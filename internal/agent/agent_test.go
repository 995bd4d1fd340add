package agent

import (
	"math"
	"testing"
	"testing/quick"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/telemetry"
)

func testSpace() Space {
	return Space{
		Lo:  cluster.V(0.1, 50, 0.5, 10, 10),
		Ref: cluster.V(2, 1000, 4, 100, 200),
		Hi:  cluster.V(8, 4000, 16, 400, 800),
	}
}

func TestDecodeBounds(t *testing.T) {
	sp := testSpace()
	lo := sp.Decode([]float64{-1, -1, -1, -1, -1})
	hi := sp.Decode([]float64{1, 1, 1, 1, 1})
	for r := 0; r < ActionDim; r++ {
		if math.Abs(lo[r]-sp.Lo[r]) > 1e-9 {
			t.Fatalf("action -1 must map to Lo: %v", lo)
		}
		if math.Abs(hi[r]-sp.Hi[r]) > 1e-9 {
			t.Fatalf("action +1 must map to Hi: %v", hi)
		}
	}
	// Action 0 is the status quo: the reference limits.
	mid := sp.Decode([]float64{0, 0, 0, 0, 0})
	for r := 0; r < ActionDim; r++ {
		if math.Abs(mid[r]-sp.Ref[r]) > 1e-9 {
			t.Fatalf("neutral action resource %d: %v want ref %v", r, mid[r], sp.Ref[r])
		}
	}
	// Half-scale actions interpolate within the correct segment.
	upHalf := sp.Decode([]float64{0.5, 0.5, 0.5, 0.5, 0.5})
	for r := 0; r < ActionDim; r++ {
		want := sp.Ref[r] + 0.5*(sp.Hi[r]-sp.Ref[r])
		if math.Abs(upHalf[r]-want) > 1e-9 {
			t.Fatalf("upper segment resource %d: %v want %v", r, upHalf[r], want)
		}
	}
	// Out-of-range actions clamp.
	ext := sp.Decode([]float64{-5, 5, 0, 0, 0})
	if math.Abs(ext[0]-sp.Lo[0]) > 1e-9 || math.Abs(ext[1]-sp.Hi[1]) > 1e-9 {
		t.Fatal("clamping failed")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sp := testSpace()
	f := func(raw [5]float64) bool {
		a := make([]float64, 5)
		for i, v := range raw {
			a[i] = math.Mod(math.Abs(v), 2) - 1 // fold into [-1,1]
			if math.IsNaN(a[i]) {
				return true
			}
		}
		v := sp.Decode(a)
		back := sp.Encode(v)
		for i := range a {
			if math.Abs(back[i]-a[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDegenerateSpan(t *testing.T) {
	one := cluster.V(1, 1, 1, 1, 1)
	sp := Space{Lo: one, Ref: one, Hi: one}
	a := sp.Encode(one)
	for _, x := range a {
		if x != 0 {
			t.Fatal("zero span must encode to the neutral action")
		}
	}
}

func TestSpaceFor(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	cl.AddNode(cluster.XeonProfile)
	rs, _ := cl.DeployService("svc", 1, cluster.V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	ref := cluster.V(2, 1000, 4, 100, 100)
	sp := SpaceFor(c, ref, cl.Config().MinLimit, 4)
	if sp.Lo != cl.Config().MinLimit {
		t.Fatalf("Lo = %v", sp.Lo)
	}
	if sp.Hi[cluster.CPU] != 8 {
		t.Fatalf("Hi cpu = %v, want 4x reference", sp.Hi[cluster.CPU])
	}
	// Headroom beyond node capacity clamps.
	sp2 := SpaceFor(c, cluster.V(30, 1000, 4, 100, 100), cl.Config().MinLimit, 4)
	if sp2.Hi[cluster.CPU] != cl.Nodes()[0].Capacity()[cluster.CPU] {
		t.Fatalf("Hi must clamp to capacity: %v", sp2.Hi[cluster.CPU])
	}
	// Headroom below 1 normalizes to 1.
	sp3 := SpaceFor(c, ref, cl.Config().MinLimit, 0.1)
	if sp3.Hi[cluster.CPU] != ref[cluster.CPU] {
		t.Fatalf("headroom<1: %v", sp3.Hi[cluster.CPU])
	}
}

func TestSV(t *testing.T) {
	sb := &StateBuilder{SLO: 100 * sim.Millisecond}
	if sv := sb.SV(200*sim.Millisecond, true); math.Abs(sv-0.5) > 1e-9 {
		t.Fatalf("SV = %v, want 0.5", sv)
	}
	if sv := sb.SV(50*sim.Millisecond, true); sv != 1 {
		t.Fatalf("SV capped at 1, got %v", sv)
	}
	if sv := sb.SV(500*sim.Millisecond, false); sv != 1 {
		t.Fatalf("non-culprit must be 1, got %v", sv)
	}
	if sv := sb.SV(0, true); sv != 1 {
		t.Fatalf("no latency data must be 1, got %v", sv)
	}
}

func TestStateVector(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(eng, cfg)
	cl.AddNode(cluster.XeonProfile)
	rs, _ := cl.DeployService("svc", 1, cluster.V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	col := telemetry.NewCollector(eng, cl, 50*sim.Millisecond, 100)
	col.Start()
	meter := telemetry.NewMeter(eng, sim.Second, []string{"a"})
	c.Submit(cluster.Work{Base: sim.Second, Demand: cluster.V(1, 500, 0, 0, 0)})
	for i := 0; i < 10; i++ {
		i := i
		eng.Schedule(sim.Time(i)*50*sim.Millisecond, func() { meter.Record("a") })
	}
	eng.RunUntil(500 * sim.Millisecond)

	sb := &StateBuilder{Col: col, Meter: meter, SLO: 100 * sim.Millisecond}
	s := sb.State(c.ID, 200*sim.Millisecond, true)
	if len(s) != StateDim {
		t.Fatalf("state dim %d", len(s))
	}
	if math.Abs(s[0]-0.5) > 1e-9 {
		t.Fatalf("SV feature = %v", s[0])
	}
	if s[1] <= 0 || s[1] > 3 {
		t.Fatalf("WC feature = %v", s[1])
	}
	if s[2] < 0 || s[2] > 1 {
		t.Fatalf("RC feature = %v", s[2])
	}
	if math.Abs(s[3]-0.5) > 1e-9 { // CPU util 1 busy of 2 cores
		t.Fatalf("RU cpu = %v", s[3])
	}
	if math.Abs(s[4]-0.5) > 1e-9 { // membw 500/1000
		t.Fatalf("RU membw = %v", s[4])
	}
	// Unknown instance: utilization features zero.
	s2 := sb.State(c.ID+1000, 200*sim.Millisecond, true)
	for r := 3; r < StateDim; r++ {
		if s2[r] != 0 {
			t.Fatalf("unknown instance util %v", s2)
		}
	}
}

func TestReward(t *testing.T) {
	full := Reward(1, cluster.V(1, 1, 1, 1, 1), 0.6)
	// No violation at full utilization earns one point per resource,
	// whatever alpha is.
	if want := float64(cluster.NumResources); math.Abs(full-want) > 1e-9 {
		t.Fatalf("perfect reward %v != max %v", full, want)
	}
	// Violations reduce reward.
	bad := Reward(0.2, cluster.V(1, 1, 1, 1, 1), 0.6)
	if bad >= full {
		t.Fatal("violation must cost reward")
	}
	// Underutilization reduces reward.
	idle := Reward(1, cluster.V(0.1, 0.1, 0.1, 0.1, 0.1), 0.6)
	if idle >= full {
		t.Fatal("idle resources must cost reward")
	}
	// Oversubscription is contention, not efficiency: it must score worse
	// than full utilization and no better than idle.
	over := Reward(1, cluster.V(5, 5, 5, 5, 5), 0.6)
	if over >= full {
		t.Fatal("utilization above limit must not pay")
	}
	if over > Reward(1, cluster.V(0, 0, 0, 0, 0), 0.6)+1e-12 {
		t.Fatal("2x oversubscription must score like idle")
	}
	// The hump peaks at u=1: u=1.5 scores like u=0.5.
	if math.Abs(Reward(1, cluster.V(1.5, 0, 0, 0, 0), 0.6)-Reward(1, cluster.V(0.5, 0, 0, 0, 0), 0.6)) > 1e-9 {
		t.Fatal("hump not symmetric")
	}
	neg := Reward(1, cluster.V(-5, 0, 0, 0, 0), 0.6)
	if neg > Reward(1, cluster.V(0, 0, 0, 0, 0), 0.6)+1e-12 {
		t.Fatal("negative utilization must clamp to 0")
	}
	// Alpha trade-off: higher alpha weighs SV more.
	lowU := cluster.V(0, 0, 0, 0, 0)
	if Reward(1, lowU, 0.9) <= Reward(1, lowU, 0.1) {
		t.Fatal("alpha weighting broken")
	}
}

// TestGuidedAction pins the guided rule's threshold: a utilization feature
// at or above 1.2 maxes its resource out, anything below holds the
// reference, and the SV/WC/RC features are ignored.
func TestGuidedAction(t *testing.T) {
	st := []float64{0.3, 2, 0.9, 1.2, 1.19, 2, 0, 1.5}
	want := []float64{1, 0, 1, 0, 1}
	got := GuidedAction(st)
	if len(got) != ActionDim {
		t.Fatalf("len = %d, want %d", len(got), ActionDim)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Errorf("action[%d] = %v for utilization %v, want %v", r, got[r], st[3+r], want[r])
		}
	}
}
