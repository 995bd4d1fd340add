package app

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"firm/internal/cluster"
	"firm/internal/cpath"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// harness deploys a spec on a fresh 4-node cluster with deterministic
// service times and returns the pieces.
func harness(t *testing.T, spec *topology.Spec, seed int64) (*sim.Engine, *App, *tracedb.Store) {
	t.Helper()
	eng := sim.NewEngine(seed)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(eng, cfg)
	for i := 0; i < 4; i++ {
		cl.AddNode(cluster.XeonProfile)
	}
	db := tracedb.New(tracedb.Forever, 0)
	coord := trace.NewCoordinator(eng, db, cl)
	a, err := Deploy(eng, cl, spec, coord)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, db
}

// service names the service a span of tr ran on.
func service(tr *trace.Trace, sp trace.Span) string { return tr.Names.ServiceName(uint32(sp.Service)) }

func TestDeployCreatesAllServices(t *testing.T) {
	_, a, _ := harness(t, topology.SocialNetwork(), 1)
	for name := range a.Spec.Services {
		rs := a.Cluster().ReplicaSet(name)
		if rs == nil || rs.ReadyCount() < 1 {
			t.Fatalf("service %s not deployed/ready", name)
		}
	}
}

func TestSubmitCompletesWithTrace(t *testing.T) {
	eng, a, db := harness(t, topology.SocialNetwork(), 1)
	var res Result
	gotResult := false
	if err := a.Submit("compose-post", func(r Result) { res = r; gotResult = true }); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * sim.Second)
	if !gotResult {
		t.Fatal("request never completed")
	}
	if res.Dropped || res.Latency <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	traces := db.Select(tracedb.Query{})
	if len(traces) != 1 {
		t.Fatalf("stored %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if tr.Type != "compose-post" {
		t.Fatalf("trace type %q", tr.Type)
	}
	// Fig. 2(b) participants must all have spans, including the background
	// write path.
	want := []string{"nginx", "video", "user-tag", "unique-id", "text",
		"compose-post", "write-timeline"}
	seen := map[string]bool{}
	for _, sp := range tr.AppendSpans(nil) {
		seen[service(tr, sp)] = true
	}
	for _, s := range want {
		if !seen[s] {
			t.Fatalf("missing span for %s in %v", s, seen)
		}
	}
}

func TestBackgroundSpansMarked(t *testing.T) {
	eng, a, db := harness(t, topology.SocialNetwork(), 1)
	a.Submit("compose-post", nil)
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	foundBg := false
	for _, sp := range tr.AppendSpans(nil) {
		if service(tr, sp) == "write-timeline" {
			if !sp.Background {
				t.Fatal("write-timeline span must be background")
			}
			foundBg = true
		}
		if service(tr, sp) == "nginx" && sp.Background {
			t.Fatal("root must not be background")
		}
	}
	if !foundBg {
		t.Fatal("no background span found")
	}
}

func TestParallelChildrenOverlap(t *testing.T) {
	eng, a, db := harness(t, topology.SocialNetwork(), 1)
	a.Submit("compose-post", nil)
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	spanOf := func(svc string) trace.Span {
		for _, sp := range tr.AppendSpans(nil) {
			if service(tr, sp) == svc {
				return sp
			}
		}
		t.Fatalf("span %s missing", svc)
		return trace.Span{}
	}
	v, u, txt := spanOf("video"), spanOf("user-tag"), spanOf("text")
	// Parallel spans must overlap pairwise (paper's definition in §3.2).
	overlap := func(a, b trace.Span) bool { return a.Start < b.End() && b.Start < a.End() }
	if !overlap(v, u) || !overlap(v, txt) || !overlap(u, txt) {
		t.Fatalf("parallel spans do not overlap: V=%v U=%v T=%v", v, u, txt)
	}
	// Sequential: unique-id starts after user-tag's local compute, and
	// compose-post starts only after all parallel children end.
	i := spanOf("unique-id")
	if i.Start < u.Start {
		t.Fatal("unique-id must start after user-tag starts")
	}
	c := spanOf("compose-post")
	for _, sp := range []trace.Span{v, u, txt} {
		if c.Start < sp.End() {
			t.Fatalf("compose-post started before parallel child ended")
		}
	}
}

func TestSequentialHappensBefore(t *testing.T) {
	eng, a, db := harness(t, topology.TrainTicket(), 1)
	a.Submit("query-ticket", nil)
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	var travel, seat trace.Span
	for _, sp := range tr.AppendSpans(nil) {
		switch service(tr, sp) {
		case "ts-travel":
			travel = sp
		case "ts-seat":
			seat = sp
		}
	}
	if travel.ID == 0 || seat.ID == 0 {
		t.Fatal("expected ts-travel and ts-seat spans")
	}
	if seat.Start < travel.End() {
		t.Fatal("ts-seat must start after ts-travel completes (sequential)")
	}
}

func TestSubmitMixRespectsWeights(t *testing.T) {
	eng, a, _ := harness(t, topology.HotelReservation(), 7)
	counts := map[string]int{}
	r := sim.Stream(7, "mix")
	for i := 0; i < 3000; i++ {
		i := i
		eng.Schedule(sim.Time(i)*sim.Millisecond*5, func() {
			a.SubmitMix(r, func(res Result) { counts[res.Type]++ })
		})
	}
	eng.RunUntil(sim.Minute)
	if len(counts) != 3 {
		t.Fatalf("endpoint coverage: %v", counts)
	}
	// search-hotels has weight 0.55; expect it to dominate.
	if counts["search-hotels"] < counts["recommend"] || counts["search-hotels"] < counts["reserve"] {
		t.Fatalf("mix weights not respected: %v", counts)
	}
}

func TestUnknownEndpointErrors(t *testing.T) {
	_, a, _ := harness(t, topology.HotelReservation(), 1)
	if err := a.Submit("nope", nil); err == nil {
		t.Fatal("unknown endpoint must error")
	}
}

func TestViolationAccounting(t *testing.T) {
	eng, a, _ := harness(t, topology.HotelReservation(), 1)
	a.SLO = 1 * sim.Microsecond // everything violates
	a.Submit("recommend", nil)
	eng.RunUntil(10 * sim.Second)
	if a.Completed != 1 || a.Violations != 1 {
		t.Fatalf("completed=%d violations=%d", a.Completed, a.Violations)
	}
	a.SLO = sim.Minute // nothing violates
	a.Submit("recommend", nil)
	eng.RunUntil(20 * sim.Second)
	if a.Completed != 2 || a.Violations != 1 {
		t.Fatalf("completed=%d violations=%d", a.Completed, a.Violations)
	}
}

func TestDropPropagatesToResult(t *testing.T) {
	eng, a, db := harness(t, topology.HotelReservation(), 1)
	// Remove all replicas of a service on the critical path of "reserve".
	rs := a.Cluster().ReplicaSet("ts-nonexistent")
	if rs != nil {
		t.Fatal("sanity")
	}
	userRS := a.Cluster().ReplicaSet("user")
	for _, c := range append([]*cluster.Container(nil), userRS.Containers()...) {
		userRS.RemoveReplica(c)
	}
	var res Result
	got := false
	a.Submit("reserve", func(r Result) { res = r; got = true })
	eng.RunUntil(10 * sim.Second)
	if !got || !res.Dropped {
		t.Fatalf("expected dropped result, got %+v (got=%v)", res, got)
	}
	if a.Dropped != 1 {
		t.Fatalf("dropped counter = %d", a.Dropped)
	}
	trs := db.Select(tracedb.Query{IncludeDrop: true})
	if len(trs) != 1 || !trs[0].Dropped {
		t.Fatal("dropped trace must be stored with Dropped=true")
	}
}

func TestResultHookObservesAll(t *testing.T) {
	eng, a, _ := harness(t, topology.HotelReservation(), 1)
	n := 0
	a.SetResultHook(func(Result) { n++ })
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(sim.Time(i)*100*sim.Millisecond, func() { a.Submit("recommend", nil) })
	}
	eng.RunUntil(sim.Minute)
	if n != 5 {
		t.Fatalf("hook saw %d results, want 5", n)
	}
}

func TestCalibrateSetsSLO(t *testing.T) {
	_, a, _ := harness(t, topology.HotelReservation(), 1)
	p99 := a.Calibrate(10, 1.5)
	if p99 <= 0 {
		t.Fatal("calibration returned no latency")
	}
	if a.SLO != sim.FromMillis(p99*1.5) {
		t.Fatalf("SLO %v not p99*margin", a.SLO)
	}
}

func TestTraceLatencyMatchesResult(t *testing.T) {
	eng, a, db := harness(t, topology.MediaService(), 3)
	var res Result
	a.Submit("read-page", func(r Result) { res = r })
	eng.RunUntil(10 * sim.Second)
	tr := db.Select(tracedb.Query{})[0]
	root := tr.Root()
	if service(tr, root) != "nginx" {
		t.Fatalf("root service %s", service(tr, root))
	}
	// Root span excludes only the client<->nginx hops; result latency must
	// be >= root span duration and close to it.
	if res.Latency < root.Duration() {
		t.Fatalf("result latency %v < root span %v", res.Latency, root.Duration())
	}
	if res.Latency > root.Duration()+10*sim.Millisecond {
		t.Fatalf("result latency %v too far above root span %v", res.Latency, root.Duration())
	}
}

func TestAllBenchmarksExecuteAllEndpoints(t *testing.T) {
	for _, spec := range topology.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			eng, a, db := harness(t, spec, 11)
			for _, ep := range spec.Endpoints {
				if err := a.Submit(ep.Name, nil); err != nil {
					t.Fatal(err)
				}
			}
			eng.RunUntil(sim.Minute)
			if int(a.Completed) != len(spec.Endpoints) {
				t.Fatalf("completed %d of %d endpoints (dropped %d)",
					a.Completed, len(spec.Endpoints), a.Dropped)
			}
			for _, tr := range db.Select(tracedb.Query{}) {
				if err := tr.Validate(); err != nil {
					t.Errorf("%s: %v", tr.Type, err)
				}
			}
		})
	}
}

func TestCoordinatorNoPendingLeak(t *testing.T) {
	eng, a, _ := harness(t, topology.SocialNetwork(), 1)
	for i := 0; i < 20; i++ {
		i := i
		eng.Schedule(sim.Time(i)*50*sim.Millisecond, func() { a.SubmitMix(sim.Stream(1, "x"), nil) })
	}
	eng.RunUntil(sim.Minute)
	if a.Coord.PendingCount() != 0 {
		t.Fatalf("coordinator leaked %d pending traces", a.Coord.PendingCount())
	}
}

// twoTierSpec is a minimal client->a->b workflow for fault-hook tests.
func twoTierSpec() *topology.Spec {
	leaf := &topology.Call{Service: "svc-b", Compute: 2 * sim.Millisecond}
	root := &topology.Call{Service: "svc-a", Compute: 1 * sim.Millisecond,
		Children: []topology.Child{{Mode: topology.Seq, Call: leaf}}}
	mk := func(name string, class topology.ServiceClass) *topology.Service {
		return &topology.Service{Name: name, Class: class, Replicas: 1,
			Demand: cluster.V(1, 150, 0.5, 5, 80),
			Limits: cluster.V(2, 600, 2, 50, 300)}
	}
	return &topology.Spec{
		Name: "twotier",
		Services: map[string]*topology.Service{
			"svc-a": mk("svc-a", topology.Web),
			"svc-b": mk("svc-b", topology.Logic),
		},
		Endpoints:    []topology.Endpoint{{Name: "get", Weight: 1, Root: root}},
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}
}

func TestRetryRecoversShedCall(t *testing.T) {
	run := func(policy *RetryPolicy) Result {
		eng, a, _ := harness(t, twoTierSpec(), 1)
		a.SetRetryPolicy(policy)
		rs := a.Cluster().ReplicaSet("svc-b")
		victim := rs.Containers()[0]
		limits := victim.Limits()
		if !rs.RemoveReplica(victim) {
			t.Fatal("could not remove svc-b replica")
		}
		// Capacity returns after 20ms; only a retrying client survives.
		eng.Schedule(20*sim.Millisecond, func() {
			if _, err := rs.AddReplica(limits, false, true); err != nil {
				t.Fatal(err)
			}
		})
		var res Result
		done := false
		a.Submit("get", func(r Result) { res = r; done = true })
		eng.RunUntil(eng.Now() + 5*sim.Second)
		if !done {
			t.Fatal("request never finished")
		}
		return res
	}
	if res := run(nil); !res.Dropped {
		t.Fatalf("without retries the shed call must drop the request: %+v", res)
	}
	res := run(&RetryPolicy{MaxRetries: 5, Backoff: 10 * sim.Millisecond})
	if res.Dropped {
		t.Fatalf("with retries the request must recover: %+v", res)
	}
	if res.Latency < 20*sim.Millisecond {
		t.Fatalf("recovered latency %v should include the backoff wait", res.Latency)
	}
}

// TestRetriedRootKeepsOneRoot: a root shed at its container's queue leaves a
// span for the shed attempt and, once a retry is served, one for that — two
// Parent == 0 spans. The trace's root, and the critical path's, must be the
// served attempt, and the trace must validate.
func TestRetriedRootKeepsOneRoot(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cfg.QueueCap = 1 // svc-a: two workers and one queue slot, so a burst of six sheds three
	cl := cluster.New(eng, cfg)
	cl.AddNode(cluster.XeonProfile)
	db := tracedb.New(tracedb.Forever, 0)
	a, err := Deploy(eng, cl, twoTierSpec(), trace.NewCoordinator(eng, db, cl))
	if err != nil {
		t.Fatal(err)
	}
	a.SetRetryPolicy(&RetryPolicy{MaxRetries: 8, Backoff: 5 * sim.Millisecond})
	for i := 0; i < 6; i++ {
		if err := a.Submit("get", nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(5 * sim.Second)
	if a.Completed != 6 {
		t.Fatalf("completed %d of 6 (dropped %d): retries must recover every request", a.Completed, a.Dropped)
	}
	retried := 0
	for _, tr := range db.Select(tracedb.Query{}) {
		roots := 0
		for _, sp := range tr.AppendSpans(nil) {
			if sp.Parent == 0 {
				roots++
			}
		}
		if roots < 2 {
			continue
		}
		retried++
		if err := tr.Validate(); err != nil {
			t.Errorf("retried trace: %v", err)
		}
		root := tr.Root()
		if root.End() != tr.End { // the served root's response hop is the request's last event
			t.Errorf("root span ends at %v, trace at %v: root is not the served attempt", root.End(), tr.End)
		}
		if p := cpath.Extract(tr); p.Signature() != "svc-a→svc-b" || p.Latency != root.Duration() {
			t.Errorf("critical path %q (%v), want svc-a→svc-b (%v)", p.Signature(), p.Latency, root.Duration())
		}
	}
	if retried == 0 {
		t.Fatal("no request had its root retried; the test exercises nothing")
	}
}

// TestDeploySharedSpecConcurrently: rollout workers deploy one *topology.Spec
// from many goroutines at once, so Deploy and the request path may read the
// spec but never write it — resolved call trees and IDs live in the App and
// the cluster. Every goroutine must see the same simulation; -race checks
// the rest.
func TestDeploySharedSpecConcurrently(t *testing.T) {
	spec, err := topology.Generate(topology.Params{Services: 60, Endpoints: 3, MaxFanout: 3, Depth: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	digests := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine(9)
			cl := cluster.New(eng, cluster.DefaultConfig())
			for i := 0; i < 1+len(spec.Services)/8; i++ {
				cl.AddNode(cluster.XeonProfile)
			}
			h := fnv.New64a()
			sink := trace.SinkFunc(func(tr *trace.Trace) {
				fmt.Fprint(h, tr.ID, tr.Start, tr.End, tr.Dropped)
				for _, s := range tr.AppendSpans(nil) {
					fmt.Fprint(h, s.ID, s.Parent, tr.Names.ServiceName(uint32(s.Service)), tr.Names.InstanceName(s.Instance), s.Start, s.End(), s.Queued, s.Background)
				}
			})
			a, err := Deploy(eng, cl, spec, trace.NewCoordinator(eng, sink, cl))
			if err != nil {
				t.Error(err)
				return
			}
			mix := sim.Stream(9, "shared-spec")
			for i := 0; i < 60; i++ {
				eng.Schedule(sim.Time(i)*sim.Millisecond, func() {
					if _, err := a.SubmitMix(mix, nil); err != nil {
						t.Error(err)
					}
				})
			}
			eng.RunUntil(10 * sim.Second)
			fmt.Fprint(h, eng.Steps(), a.Completed, a.Dropped)
			digests[w] = h.Sum64()
		}()
	}
	wg.Wait()
	for w, d := range digests {
		if d != digests[0] || d == 0 {
			t.Fatalf("worker %d digest %016x, worker 0 %016x: deployments of a shared spec diverged", w, d, digests[0])
		}
	}
}

func TestEdgeFaultDelayAddsToHops(t *testing.T) {
	run := func(faults map[Edge]EdgeFault) Result {
		eng, a, _ := harness(t, twoTierSpec(), 1)
		a.SetEdgeFaults(faults, nil)
		var res Result
		a.Submit("get", func(r Result) { res = r })
		eng.RunUntil(eng.Now() + 5*sim.Second)
		return res
	}
	base := run(nil)
	delayed := run(map[Edge]EdgeFault{
		{From: "svc-a", To: "svc-b"}: {Delay: 50 * sim.Millisecond},
	})
	if base.Dropped || delayed.Dropped {
		t.Fatalf("no request should drop: base=%+v delayed=%+v", base, delayed)
	}
	// The fault edge is traversed twice (request + response hop).
	extra := delayed.Latency - base.Latency
	if extra < 100*sim.Millisecond {
		t.Fatalf("edge delay added %v, want >= 100ms", extra)
	}
}

func TestEdgeFaultDropLosesRPC(t *testing.T) {
	eng, a, db := harness(t, twoTierSpec(), 1)
	a.SetEdgeFaults(map[Edge]EdgeFault{
		{From: "svc-a", To: "svc-b"}: {Drop: 1},
	}, rand.New(rand.NewSource(7)))
	var res Result
	done := false
	a.Submit("get", func(r Result) { res = r; done = true })
	eng.RunUntil(eng.Now() + 5*sim.Second)
	if !done {
		t.Fatal("request never finished")
	}
	if !res.Dropped {
		t.Fatalf("certain drop on the only child edge must drop the request: %+v", res)
	}
	for _, tr := range db.Select(tracedb.Query{}) {
		for _, sp := range tr.AppendSpans(nil) {
			if service(tr, sp) == "svc-b" {
				t.Fatal("dropped RPC must not reach svc-b")
			}
		}
	}
}
