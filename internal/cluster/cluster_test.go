package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"firm/internal/sim"
)

func testCluster(t *testing.T, seed int64) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.NoiseSD = 0 // deterministic service times for unit tests
	cl := New(eng, cfg)
	cl.AddNode(XeonProfile)
	return eng, cl
}

func TestVectorOps(t *testing.T) {
	a := V(1, 2, 3, 4, 5)
	b := V(5, 4, 3, 2, 1)
	if got := a.Add(b); got != V(6, 6, 6, 6, 6) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-4, -2, 0, 2, 4) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6, 8, 10) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Div(V(2, 0, 3, 4, 5)); got != V(0.5, 0, 1, 1, 1) {
		t.Fatalf("Div = %v (zero denominator must yield 0)", got)
	}
	if got := V(-1, 2, -3, 0, 1).ClampNonNeg(); got != V(0, 2, 0, 0, 1) {
		t.Fatalf("ClampNonNeg = %v", got)
	}
	if got := a.Min(b); got != V(1, 2, 3, 2, 1) {
		t.Fatalf("Min = %v", got)
	}
	if a.MaxElem() != 5 {
		t.Fatalf("MaxElem = %v", a.MaxElem())
	}
}

func TestResourceNames(t *testing.T) {
	want := []string{"cpu", "membw", "llc", "iobw", "netbw"}
	for i, r := range []Resource{CPU, MemBW, LLC, IOBW, NetBW} {
		if r.String() != want[i] {
			t.Fatalf("resource %d name %q", i, r.String())
		}
	}
	if Resource(99).String() != "resource(99)" {
		t.Fatal("out-of-range resource name")
	}
}

func TestDeployAndProcess(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, err := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	c := rs.Pick()
	if c == nil || !c.Ready() {
		t.Fatal("expected a ready container")
	}
	var gotQ, gotP sim.Time
	done := false
	c.Submit(Work{
		Base:    10 * sim.Millisecond,
		Demand:  V(1, 100, 0.5, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { gotQ, gotP, done = q, p, true }},
	})
	eng.RunUntil(sim.Second)
	if !done {
		t.Fatal("work did not complete")
	}
	if gotQ != 0 {
		t.Fatalf("queued = %v, want 0 (idle container)", gotQ)
	}
	if gotP != 10*sim.Millisecond {
		t.Fatalf("processing = %v, want 10ms (uncontended)", gotP)
	}
	if c.Completed != 1 {
		t.Fatalf("completed = %d", c.Completed)
	}
}

func TestQueueingDelay(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var queued []sim.Time
	for i := 0; i < 3; i++ {
		c.Submit(Work{
			Base:    10 * sim.Millisecond,
			Demand:  V(1, 0, 0, 0, 0),
			Handler: WorkFuncs{Done: func(q, p sim.Time) { queued = append(queued, q) }},
		})
	}
	eng.RunUntil(sim.Second)
	if len(queued) != 3 {
		t.Fatalf("completed %d, want 3", len(queued))
	}
	if queued[0] != 0 {
		t.Fatalf("first item queued %v", queued[0])
	}
	if queued[1] < 9*sim.Millisecond || queued[2] < 19*sim.Millisecond {
		t.Fatalf("FIFO queueing delays wrong: %v", queued)
	}
}

func TestWorkerPoolConcurrency(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(4, 10000, 38, 1000, 1000))
	c := rs.Pick()
	doneAt := make([]sim.Time, 0, 4)
	for i := 0; i < 4; i++ {
		c.Submit(Work{
			Base:    10 * sim.Millisecond,
			Demand:  V(1, 0, 0, 0, 0),
			Handler: WorkFuncs{Done: func(q, p sim.Time) { doneAt = append(doneAt, eng.Now()) }},
		})
	}
	eng.RunUntil(sim.Second)
	if len(doneAt) != 4 {
		t.Fatalf("completed %d", len(doneAt))
	}
	// With 4 workers all four finish at the same instant (no queueing).
	for _, d := range doneAt {
		if d != doneAt[0] {
			t.Fatalf("4 workers should finish together: %v", doneAt)
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.QueueCap = 2
	cfg.NoiseSD = 0
	cl := New(eng, cfg)
	cl.AddNode(XeonProfile)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	drops := 0
	for i := 0; i < 5; i++ {
		c.Submit(Work{
			Base:    time10ms(),
			Demand:  V(1, 0, 0, 0, 0),
			Handler: WorkFuncs{Drop: func() { drops++ }},
		})
	}
	// 1 in flight + 2 queued; the remaining 2 dropped synchronously.
	if drops != 2 || c.Dropped != 2 {
		t.Fatalf("drops = %d, counter = %d, want 2", drops, c.Dropped)
	}
	eng.RunUntil(sim.Second)
	if c.Completed != 3 {
		t.Fatalf("completed = %d, want 3", c.Completed)
	}
}

func time10ms() sim.Time { return 10 * sim.Millisecond }

func TestNotReadyDrops(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	// Add a replica with warm start; before the delay it must not be picked
	// and direct submits are dropped.
	c2, err := rs.AddReplica(V(1, 1000, 4, 100, 100), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ready() {
		t.Fatal("replica ready before start delay")
	}
	dropped := false
	c2.Submit(Work{Base: sim.Millisecond, Handler: WorkFuncs{Drop: func() { dropped = true }}})
	if !dropped {
		t.Fatal("submit to non-ready container must drop")
	}
	eng.RunUntil(sim.Second)
	if !c2.Ready() {
		t.Fatal("replica should be ready after warm start delay")
	}
}

// TestReplicaRetiredDuringStartStaysDown: a replica removed before its start
// delay has passed must not come back when the delay ends — it stays not
// ready, sheds what is submitted to it, and charges nothing to the node it
// was detached from.
func TestReplicaRetiredDuringStartStaysDown(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	c, err := rs.AddReplica(V(1, 1000, 4, 100, 100), false, false)
	if err != nil {
		t.Fatal(err)
	}
	node := c.Node()
	rs.RemoveReplica(c)
	eng.RunUntil(sim.Second) // well past the warm-start delay
	if c.Ready() {
		t.Fatal("replica retired during its start delay came back ready")
	}
	dropped := false
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0), Handler: WorkFuncs{Drop: func() { dropped = true }}})
	if !dropped || c.Busy() != 0 {
		t.Fatalf("submit to a retired replica: dropped=%v busy=%d, want shed", dropped, c.Busy())
	}
	if got := node.Usage()[CPU]; got != 0 {
		t.Fatalf("detached node charged %v CPU for the retired replica's work", got)
	}
}

func TestColdStartSlower(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	warm, _ := rs.AddReplica(V(1, 1000, 4, 100, 100), false, false)
	cold, _ := rs.AddReplica(V(1, 1000, 4, 100, 100), true, false)
	eng.RunUntil(sim.FromMillis(100))
	if !warm.Ready() || cold.Ready() {
		t.Fatal("warm should be ready at 100ms, cold should not")
	}
	eng.RunUntil(sim.FromMillis(3000))
	if !cold.Ready() {
		t.Fatal("cold replica should be ready by 3s")
	}
}

func TestContentionSlowdownNodeLevel(t *testing.T) {
	eng, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 1, V(2, 2000, 4, 100, 100))
	c := rs.Pick()

	var base sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { base = p }}})
	eng.RunUntil(sim.Second)

	// Saturate node memory bandwidth 2x via injected anomaly.
	node.SetInjectedLoad(V(0, 2*node.Capacity()[MemBW], 0, 0, 0))
	var contended sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { contended = p }}})
	eng.RunUntil(2 * sim.Second)

	if contended <= base {
		t.Fatalf("contended %v should exceed base %v", contended, base)
	}
	if float64(contended)/float64(base) < 1.5 {
		t.Fatalf("2x membw oversubscription should slow >=1.5x, got %.2fx",
			float64(contended)/float64(base))
	}
	node.SetInjectedLoad(Vector{})
	var recovered sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { recovered = p }}})
	eng.RunUntil(3 * sim.Second)
	if recovered != base {
		t.Fatalf("after clearing anomaly, latency %v should return to %v", recovered, base)
	}
}

func TestContainerTargetedCPUStressor(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var base sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { base = p }}})
	eng.RunUntil(sim.Second)

	c.SetInjectedLoad(V(1, 0, 0, 0, 0)) // stressor eats a full core
	var stressed sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { stressed = p }}})
	eng.RunUntil(2 * sim.Second)
	if stressed <= base {
		t.Fatalf("CPU stressor must slow container: base %v stressed %v", base, stressed)
	}
	// Node-level usage must NOT include the targeted CPU stressor.
	if cl.Nodes()[0].InjectedLoad()[CPU] != 0 {
		t.Fatal("CPU stressor leaked to node-level injected load")
	}
}

func TestScaleUpMitigatesContention(t *testing.T) {
	// A container whose memory-bandwidth limit is the bottleneck should
	// speed up when the limit is raised — the basic premise of FIRM's
	// scale-up action.
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(2, 200, 4, 100, 100))
	c := rs.Pick()
	var before sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 600, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { before = p }}})
	eng.RunUntil(sim.Second)

	c.SetLimits(V(2, 1000, 4, 100, 100))
	var after sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 600, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, p sim.Time) { after = p }}})
	eng.RunUntil(2 * sim.Second)
	if after >= before {
		t.Fatalf("raising membw limit must reduce latency: before %v after %v", before, after)
	}
}

func TestSetLimitsClampedToCapacityAndFloor(t *testing.T) {
	_, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	c.SetLimits(V(10000, 1e9, 1e9, 1e9, 1e9))
	cap := cl.Nodes()[0].Capacity()
	if c.Limits() != cap {
		t.Fatalf("limits %v not clamped to capacity %v", c.Limits(), cap)
	}
	c.SetLimits(V(0, 0, 0, 0, 0))
	if c.Limits() != cl.Config().MinLimit {
		t.Fatalf("limits %v not floored at %v", c.Limits(), cl.Config().MinLimit)
	}
}

func TestCPUAllocTracksLimits(t *testing.T) {
	_, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 2, V(3, 1000, 4, 100, 100))
	if got := node.CPUAllocated(); got != 6 {
		t.Fatalf("allocated = %v, want 6", got)
	}
	c := rs.Containers()[0]
	c.SetLimits(V(5, 1000, 4, 100, 100))
	if got := node.CPUAllocated(); got != 8 {
		t.Fatalf("allocated = %v, want 8", got)
	}
	rs.RemoveReplica(c)
	if got := node.CPUAllocated(); got != 3 {
		t.Fatalf("allocated = %v, want 3", got)
	}
	if got := cl.TotalRequestedCPU(); got != 3 {
		t.Fatalf("TotalRequestedCPU = %v, want 3", got)
	}
}

func TestPlacementPrefersFreeNode(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := New(eng, DefaultConfig())
	n0 := cl.AddNode(XeonProfile)
	n1 := cl.AddNode(XeonProfile)
	rs, _ := cl.DeployService("a", 1, V(40, 1000, 4, 100, 100))
	if rs.Containers()[0].Node() != n0 && rs.Containers()[0].Node() != n1 {
		t.Fatal("container not placed")
	}
	first := rs.Containers()[0].Node()
	rs2, _ := cl.DeployService("b", 1, V(10, 1000, 4, 100, 100))
	if rs2.Containers()[0].Node() == first {
		t.Fatal("second container should go to the freer node")
	}
}

func TestPlacementExhaustion(t *testing.T) {
	eng := sim.NewEngine(1)
	cl := New(eng, DefaultConfig())
	cl.AddNode(XeonProfile) // 56 cores
	if _, err := cl.DeployService("big", 1, V(50, 1000, 4, 100, 100)); err != nil {
		t.Fatal(err)
	}
	rs := cl.ReplicaSet("big")
	if _, err := rs.AddReplica(V(50, 1000, 4, 100, 100), false, true); err != ErrNoCapacity {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
}

func TestRoundRobinPick(t *testing.T) {
	_, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 3, V(1, 1000, 4, 100, 100))
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		seen[rs.Pick().Name]++
	}
	if len(seen) != 3 {
		t.Fatalf("round robin hit %d containers, want 3", len(seen))
	}
	for id, n := range seen {
		if n != 3 {
			t.Fatalf("container %s picked %d times", id, n)
		}
	}
}

func TestPickSkipsNotReady(t *testing.T) {
	_, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	rs.AddReplica(V(1, 1000, 4, 100, 100), false, false) // not ready yet
	for i := 0; i < 10; i++ {
		if c := rs.Pick(); !c.Ready() {
			t.Fatal("picked a non-ready container")
		}
	}
	if rs.ReadyCount() != 1 {
		t.Fatalf("ready = %d", rs.ReadyCount())
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	c.Submit(Work{Base: 100 * sim.Millisecond, Demand: V(1, 500, 1, 0, 0)})
	eng.RunUntil(10 * sim.Millisecond) // mid-flight
	u := c.Utilization()
	if math.Abs(u[CPU]-0.5) > 1e-9 {
		t.Fatalf("CPU util = %v, want 0.5 (1 of 2 cores)", u[CPU])
	}
	if math.Abs(u[MemBW]-0.5) > 1e-9 {
		t.Fatalf("MemBW util = %v, want 0.5", u[MemBW])
	}
	eng.RunUntil(sim.Second)
	u = c.Utilization()
	if u[CPU] != 0 || u[MemBW] != 0 {
		t.Fatalf("idle utilization = %v, want zeros", u)
	}
	if n := cl.Nodes()[0].Usage(); n != (Vector{}) {
		t.Fatalf("node usage after drain = %v, want zeros", n)
	}
}

func TestNodeEffectiveDemandCappedByLimit(t *testing.T) {
	eng, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 1, V(2, 300, 4, 100, 100))
	c := rs.Pick()
	c.Submit(Work{Base: 100 * sim.Millisecond, Demand: V(1, 5000, 0, 0, 0)})
	eng.RunUntil(10 * sim.Millisecond)
	if got := node.Usage()[MemBW]; got > 300+1e-9 {
		t.Fatalf("node membw usage %v exceeds container limit 300 (partition not enforced)", got)
	}
	eng.RunUntil(sim.Second)
}

func TestRemoveReplicaDropsQueuedWork(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100))
	c := rs.Pick()
	drops := 0
	for i := 0; i < 3; i++ {
		c.Submit(Work{Base: 50 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
			Handler: WorkFuncs{Drop: func() { drops++ }}})
	}
	rs.RemoveReplica(c)
	if drops != 2 { // 1 in flight, 2 queued -> dropped
		t.Fatalf("drops = %d, want 2", drops)
	}
	eng.RunUntil(sim.Second)
	if rs.Pick() != nil {
		t.Fatal("no replicas should remain")
	}
}

func TestDuplicateServiceRejected(t *testing.T) {
	_, cl := testCluster(t, 1)
	if _, err := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DeployService("svc", 1, V(1, 1000, 4, 100, 100)); err == nil {
		t.Fatal("duplicate service must be rejected")
	}
}

// TestReplicaSetIDBound: spans carry the service ID in 16 bits, so the
// 65,536th replica set (ID 65535) is the last a cluster mints; the next one
// panics instead of truncating.
func TestReplicaSetIDBound(t *testing.T) {
	_, cl := testCluster(t, 1)
	cl.byID = make([]*ReplicaSet, math.MaxUint16) // IDs 0..65534 taken
	rs, err := cl.DeployService("last", 0, Vector{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ID != math.MaxUint16 {
		t.Fatalf("65,536th replica set has ID %d, want %d", rs.ID, math.MaxUint16)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a 65,537th replica set was minted without panicking")
		}
	}()
	cl.DeployService("one-too-many", 0, Vector{})
}

func TestFractionalCPUInflatesServiceTime(t *testing.T) {
	eng, cl := testCluster(t, 1)
	rs, _ := cl.DeployService("svc", 1, V(0.5, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var p sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(0.4, 0, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, pp sim.Time) { p = pp }}})
	eng.RunUntil(sim.Second)
	if p < 19*sim.Millisecond {
		t.Fatalf("0.5 CPU should roughly double 10ms work, got %v", p)
	}
}

func TestPerCoreDRAMAccessSignal(t *testing.T) {
	eng, cl := testCluster(t, 1)
	node := cl.Nodes()[0]
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	base := node.PerCoreDRAMAccess()
	c := rs.Pick()
	c.Submit(Work{Base: 100 * sim.Millisecond, Demand: V(1, 800, 0, 0, 0)})
	eng.RunUntil(10 * sim.Millisecond)
	if node.PerCoreDRAMAccess() <= base {
		t.Fatal("per-core DRAM proxy should rise with in-flight membw demand")
	}
	eng.RunUntil(sim.Second)
}

func TestPpc64ProfileSpeedFactor(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.NoiseSD = 0
	cl := New(eng, cfg)
	cl.AddNode(PowerProfile)
	rs, _ := cl.DeployService("svc", 1, V(2, 1000, 4, 100, 100))
	c := rs.Pick()
	var p sim.Time
	c.Submit(Work{Base: 10 * sim.Millisecond, Demand: V(1, 0, 0, 0, 0),
		Handler: WorkFuncs{Done: func(q, pp sim.Time) { p = pp }}})
	eng.RunUntil(sim.Second)
	want := sim.Time(float64(10*sim.Millisecond) * PowerProfile.SpeedFactor)
	if p != want {
		t.Fatalf("ppc64 processing = %v, want %v", p, want)
	}
}

// Property: usage accounting always returns to zero after all work drains,
// regardless of the submission pattern.
func TestPropertyUsageDrainsToZero(t *testing.T) {
	f := func(bases []uint8, seed int64) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cl := New(eng, cfg)
		cl.AddNode(XeonProfile)
		rs, err := cl.DeployService("svc", 2, V(2, 500, 4, 100, 100))
		if err != nil {
			return false
		}
		for _, b := range bases {
			c := rs.Pick()
			c.Submit(Work{
				Base:   sim.Time(b)*sim.Millisecond + 1,
				Demand: V(1, float64(b)*10, 0.5, 5, 5),
			})
		}
		eng.RunUntil(sim.Hour)
		for _, c := range rs.Containers() {
			if c.Busy() != 0 || c.QueueLen() != 0 {
				return false
			}
			u := c.Usage()
			for _, x := range u {
				if x > 1e-6 {
					return false
				}
			}
		}
		nu := cl.Nodes()[0].Usage()
		for _, x := range nu {
			if x > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: completed + dropped == submitted for any workload burst.
func TestPropertyConservationOfRequests(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		eng := sim.NewEngine(seed)
		cfg := DefaultConfig()
		cfg.QueueCap = 4
		cl := New(eng, cfg)
		cl.AddNode(XeonProfile)
		rs, _ := cl.DeployService("svc", 1, V(1, 500, 4, 100, 100))
		c := rs.Pick()
		var done, dropped int
		for i := 0; i < int(n); i++ {
			c.Submit(Work{
				Base:   sim.Millisecond,
				Demand: V(1, 0, 0, 0, 0),
				Handler: WorkFuncs{
					Done: func(q, p sim.Time) { done++ },
					Drop: func() { dropped++ },
				},
			})
		}
		eng.RunUntil(sim.Hour)
		return done+dropped == int(n) &&
			uint64(done) == c.Completed && uint64(dropped) == c.Dropped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueHeadIndexFIFO runs one worker behind a sliding backlog long
// enough that the queue wraps many times: completions must come out in
// submission order, QueueLen and QueueCap must count waiting items only,
// and retiring the replica must drop exactly the waiting items, oldest
// first.
func TestQueueHeadIndexFIFO(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.QueueCap = 4
	cfg.NoiseSD = 0
	cl := New(eng, cfg)
	cl.AddNode(XeonProfile)
	rs, _ := cl.DeployService("svc", 1, V(1, 10000, 38, 1000, 1000))
	c := rs.Pick()
	var done, dropped []int
	next := 0
	submit := func() {
		id := next
		next++
		c.Submit(Work{Base: sim.Millisecond, Demand: V(1, 0, 0, 0, 0), Handler: WorkFuncs{
			Done: func(_, _ sim.Time) { done = append(done, id) },
			Drop: func() { dropped = append(dropped, id) },
		}})
	}
	// Fill: item 0 in flight, 1..4 waiting, 5 shed by QueueCap.
	for i := 0; i < 6; i++ {
		submit()
	}
	if c.QueueLen() != 4 || c.Busy() != 1 || len(dropped) != 1 || dropped[0] != 5 {
		t.Fatalf("after fill: queue %d busy %d dropped %v", c.QueueLen(), c.Busy(), dropped)
	}
	// Slide: each completion frees one slot, which one new item takes and a
	// second finds full again.
	for round := 0; round < 200; round++ {
		eng.RunFor(sim.Millisecond)
		if c.QueueLen() != 3 {
			t.Fatalf("round %d: queue %d after a completion, want 3", round, c.QueueLen())
		}
		submit()
		submit()
		if c.QueueLen() != 4 {
			t.Fatalf("round %d: queue %d, want it back at QueueCap", round, c.QueueLen())
		}
	}
	if len(done) != 200 || len(dropped) != 201 {
		t.Fatalf("done %d dropped %d, want 200 and 201", len(done), len(dropped))
	}
	for i := 1; i < len(done); i++ {
		if done[i] <= done[i-1] {
			t.Fatalf("completions out of submission order: %v", done[:i+1])
		}
	}
	// Retire: the in-flight item completes detached, the four waiting drop
	// in FIFO order, and nothing already served is dropped again.
	dropped = dropped[:0]
	rs.RemoveReplica(c)
	if len(dropped) != 4 || c.QueueLen() != 0 {
		t.Fatalf("retire dropped %v (queue %d), want the 4 waiting items", dropped, c.QueueLen())
	}
	for i, id := range dropped {
		if id <= done[len(done)-1] || (i > 0 && id <= dropped[i-1]) {
			t.Fatalf("retire dropped %v after serving up to %d", dropped, done[len(done)-1])
		}
	}
	served := len(done)
	eng.RunUntil(eng.Now() + sim.Second)
	if len(done) != served+1 || int(c.Completed) != served+1 {
		t.Fatalf("in-flight item must complete after retirement: done %d completed %d", len(done), c.Completed)
	}
}

// noiseCluster is a one-node cluster under PerInstanceNoise.
func noiseCluster(seed int64) (*sim.Engine, *Cluster) {
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.PerInstanceNoise, cfg.NoiseSeed = true, seed
	cl := New(eng, cfg)
	cl.AddNode(XeonProfile)
	return eng, cl
}

// A replica added after a scale-in must not repeat a surviving replica's
// noise stream: ordinals count replicas ever placed, not replicas alive.
func TestScaleOutAfterScaleInGetsFreshNoiseStream(t *testing.T) {
	_, cl := noiseCluster(7)
	limits := V(1, 1000, 4, 100, 100)
	rs, err := cl.DeployService("svc", 3, limits)
	if err != nil {
		t.Fatal(err)
	}
	rs.RemoveReplica(rs.Containers()[0])
	if _, err := rs.AddReplica(limits, false, true); err != nil {
		t.Fatal(err)
	}
	draws := func(c *Container) (out [64]uint64) {
		s := c.noise // a copy: the container's own stream stays where it is
		for i := range out {
			out[i] = s.Uint64()
		}
		return out
	}
	live := rs.Containers()
	newcomer := draws(live[2])
	for _, survivor := range live[:2] {
		if draws(survivor) == newcomer {
			t.Fatalf("replica %s draws the same 64 values as surviving replica %s", live[2].Name, survivor.Name)
		}
	}
}

// The first Submit to a container nothing has touched costs its queue, its
// in-flight record and its freelist — three allocations, so none is a
// generator: the noise stream is eight bytes the container already holds.
func TestFirstSubmitAllocatesNoGenerator(t *testing.T) {
	const runs = 50
	eng, cl := noiseCluster(3)
	for i := 0; i < 8; i++ {
		cl.AddNode(XeonProfile)
	}
	rs, err := cl.DeployService("svc", runs+2, V(1, 1000, 4, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	work := Work{Base: sim.Millisecond, Demand: V(1, 0, 0, 0, 0)}
	// Warm the engine (event record, heap) on a container of its own.
	rs.Containers()[runs+1].Submit(work)
	eng.RunFor(sim.Second)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		rs.Containers()[next].Submit(work)
		eng.RunFor(sim.Second)
		next++
	})
	if allocs > 3 {
		t.Fatalf("first Submit allocated %v times, want at most 3", allocs)
	}
	if rs.Containers()[0].Completed != 1 {
		t.Fatal("the submitted work did not complete")
	}
}

// TestClusterReset: a cluster Reset in the middle of a run — queued and
// in-flight work, a scaled-out replica, a retired one, injected node load —
// deploys and serves exactly as a new cluster with the same nodes does: same
// IDs, names, placements, node accounting and service times. Its containers
// are the old ones recycled, their queues empty.
func TestClusterReset(t *testing.T) {
	build := func(eng *sim.Engine, cl *Cluster) []*Container {
		var out []*Container
		for _, svc := range []string{"b", "a", "c"} {
			rs, err := cl.DeployService(svc, 2, V(2, 1000, 4, 100, 100))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rs.Containers()...)
		}
		return out
	}
	serve := func(eng *sim.Engine, cl *Cluster) string {
		out := ""
		for i, c := range build(eng, cl) {
			for k := 0; k < 5; k++ {
				c.Submit(Work{Base: sim.Time(1+i) * sim.Millisecond, Demand: V(1, 300, 0, 0, 0), Handler: WorkFuncs{Done: func(q, p sim.Time) {
					out += fmt.Sprintf("%s %v %v; ", c.Name, q, p)
				}}})
			}
		}
		eng.RunUntil(sim.Second)
		for _, rs := range cl.ReplicaSets() {
			for _, c := range rs.Containers() {
				out += fmt.Sprintf("\n%d %s on %s %v", c.ID, c.Name, c.Node().ID, c.Limits())
			}
		}
		for _, n := range cl.Nodes() {
			out += fmt.Sprintf("\n%s %v %v", n.ID, n.CPUAllocated(), n.Usage())
		}
		return out
	}
	eng, cl := testCluster(t, 1)
	cl.AddNode(PowerProfile)
	old := build(eng, cl)
	for _, c := range old {
		for k := 0; k < 20; k++ {
			c.Submit(Work{Base: 50 * sim.Millisecond, Demand: V(1, 500, 0, 0, 0)})
		}
	}
	rs := cl.ReplicaSet("a")
	added, err := rs.AddReplica(V(1, 500, 2, 50, 50), true, false)
	if err != nil {
		t.Fatal(err)
	}
	old = append(old, added)
	rs.RemoveReplica(rs.Containers()[0])
	cl.Nodes()[0].AddInjectedLoad(V(0, 4000, 0, 0, 0))
	eng.RunUntil(30 * sim.Millisecond)
	if cl.TotalRequestedCPU() == 0 { // also caches the sorted replica sets
		t.Fatal("nothing deployed before the Reset")
	}
	eng.Reset(2)
	cl.Reset()

	freshEng, fresh := testCluster(t, 2)
	fresh.AddNode(PowerProfile)
	if got, want := serve(eng, cl), serve(freshEng, fresh); got != want {
		t.Fatalf("after Reset:\n%s\na new cluster:\n%s", got, want)
	}
	recycled := map[*Container]bool{}
	for _, c := range old {
		recycled[c] = true
	}
	for _, rs := range cl.ReplicaSets() {
		for _, c := range rs.Containers() {
			if !recycled[c] {
				t.Fatalf("container %s is new; Reset had %d to recycle", c.Name, len(old))
			}
		}
	}
}
