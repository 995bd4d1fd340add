package deploy

import (
	"math"
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/stats"
)

func setup(t *testing.T) (*sim.Engine, *cluster.Cluster, *cluster.ReplicaSet, *Module) {
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
	return eng, cl, rs, New(eng, cl)
}

func TestApplyLimitsTakesEffectAfterDelay(t *testing.T) {
	eng, _, rs, m := setup(t)
	c := rs.Pick()
	done := false
	m.ApplyLimits(c, cluster.V(4, 2000, 8, 200, 200), func() { done = true })
	if done {
		t.Fatal("completion must not be synchronous")
	}
	// All five partition ops changed; the gate is the slowest (mem ~42ms).
	eng.RunUntil(sim.FromMillis(1))
	if c.Limits()[cluster.CPU] != 2 {
		t.Fatal("limits applied too early")
	}
	eng.RunUntil(sim.FromMillis(100))
	if !done || c.Limits()[cluster.CPU] != 4 {
		t.Fatalf("limits not applied: done=%v limits=%v", done, c.Limits())
	}
	if m.ScaleUps != 1 {
		t.Fatalf("scaleups = %d", m.ScaleUps)
	}
}

func TestApplyLimitsCPUOnlyFast(t *testing.T) {
	eng, _, rs, m := setup(t)
	c := rs.Pick()
	lim := c.Limits()
	lim[cluster.CPU] = 3
	m.ApplyLimits(c, lim, nil)
	// CPU op mean 2.1ms ±0.3: must be live well before 10ms.
	eng.RunUntil(sim.FromMillis(10))
	if c.Limits()[cluster.CPU] != 3 {
		t.Fatal("cpu-only change should apply within ~2ms")
	}
	ms := m.Measured(OpCPU)
	if len(ms) != 1 || ms[0] < 2.1-0.9 || ms[0] > 2.1+0.9 {
		t.Fatalf("measured cpu op latency %v", ms)
	}
	if len(m.Measured(OpMem)) != 0 {
		t.Fatal("unchanged resources must not pay op latency")
	}
}

func TestNoOpRejected(t *testing.T) {
	_, _, rs, m := setup(t)
	c := rs.Pick()
	called := false
	m.ApplyLimits(c, c.Limits(), func() { called = true })
	if !called || m.Rejected != 1 || m.ScaleUps != 0 {
		t.Fatalf("no-op handling: called=%v rejected=%d", called, m.Rejected)
	}
}

func TestOversubscriptionBecomesScaleOut(t *testing.T) {
	eng, cl, rs, m := setup(t)
	c := rs.Pick()
	// Request more CPU than the node has free (56-core node, ask 200).
	replaced := m.ApplyLimits(c, cluster.V(200, 1000, 4, 100, 100), nil)
	if !replaced {
		t.Fatal("oversubscribing action must be replaced by scale-out (§3.5)")
	}
	if m.ScaleOuts != 1 {
		t.Fatalf("scaleouts = %d", m.ScaleOuts)
	}
	eng.RunUntil(sim.Second)
	if got := len(rs.Containers()); got != 2 {
		t.Fatalf("replicas = %d, want 2", got)
	}
	if rs.ReadyCount() != 2 {
		t.Fatal("new replica should be ready after warm start")
	}
	_ = cl
}

func TestScaleOutColdVsWarm(t *testing.T) {
	eng, _, rs, m := setup(t)
	warmDone, coldDone := sim.Time(-1), sim.Time(-1)
	m.ScaleOut(rs, cluster.V(1, 1000, 4, 100, 100), false, func() { warmDone = eng.Now() })
	m.ScaleOut(rs, cluster.V(1, 1000, 4, 100, 100), true, func() { coldDone = eng.Now() })
	eng.RunUntil(10 * sim.Second)
	if warmDone < 0 || coldDone < 0 {
		t.Fatal("scale-outs did not complete")
	}
	if coldDone < warmDone*10 {
		t.Fatalf("cold start (%v) must be far slower than warm (%v)", coldDone, warmDone)
	}
}

func TestScaleOutCapacityError(t *testing.T) {
	eng, _, rs, m := setup(t)
	done := false
	_, err := m.ScaleOut(rs, cluster.V(1000, 1, 1, 1, 1), false, func() { done = true })
	if err == nil {
		t.Fatal("want capacity error")
	}
	if !done {
		t.Fatal("onDone must still fire on rejection")
	}
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d", m.Rejected)
	}
	eng.RunUntil(sim.Second)
}

func TestScaleIn(t *testing.T) {
	eng, _, rs, m := setup(t)
	m.ScaleOut(rs, cluster.V(1, 1000, 4, 100, 100), false, nil)
	eng.RunUntil(sim.Second)
	if len(rs.Containers()) != 2 {
		t.Fatal("setup")
	}
	if !m.ScaleIn(rs, rs.Containers()[1]) {
		t.Fatal("scale-in failed")
	}
	if len(rs.Containers()) != 1 {
		t.Fatal("replica not removed")
	}
	if m.ScaleIn(rs, rs.Containers()[0]) && len(rs.Containers()) != 0 {
		t.Fatal("second scale-in")
	}
}

// Table 6 reproduction at the unit level: measured means must match the
// configured distributions within tolerance.
func TestMeasuredLatenciesMatchTable6(t *testing.T) {
	eng, _, rs, m := setup(t)
	c := rs.Pick()
	for i := 0; i < 300; i++ {
		lim := c.Limits()
		if i%2 == 0 {
			lim[cluster.MemBW] += 1
		} else {
			lim[cluster.MemBW] -= 1
		}
		m.ApplyLimits(c, lim, nil)
		eng.RunFor(sim.Second)
	}
	ms := m.Measured(OpMem)
	if len(ms) != 300 {
		t.Fatalf("measured %d mem ops", len(ms))
	}
	mean := stats.Mean(ms)
	if math.Abs(mean-42.4) > 3 {
		t.Fatalf("mem op mean %v, Table 6 says 42.4ms", mean)
	}
	sd := stats.StdDev(ms)
	if sd < 4 || sd > 16 {
		t.Fatalf("mem op sd %v, Table 6 says 11.0ms", sd)
	}
}

func TestLatencyParamsTable6(t *testing.T) {
	cases := []struct {
		op   Op
		mean float64
	}{
		{OpCPU, 2.1}, {OpMem, 42.4}, {OpLLC, 39.8}, {OpIO, 2.3}, {OpNet, 12.3},
		{OpWarmStart, 45.7}, {OpColdStart, 2050.8},
	}
	for _, c := range cases {
		mean, sd := opLatency[c.op][0], opLatency[c.op][1]
		if mean != c.mean || sd <= 0 {
			t.Fatalf("%v: (%v, %v)", c.op, mean, sd)
		}
	}
	if OpCPU.String() != "cpu" || OpColdStart.String() != "cold-start" {
		t.Fatal("op names")
	}
	if Op(99).String() != "op(?)" {
		t.Fatal("out-of-range op name")
	}
}
