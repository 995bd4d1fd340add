package app

import (
	"math"
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

// fanSpec is client -> front -> {modes...} leaf services "leaf-0".."leaf-n",
// one child per mode, plus a trailing Seq child "tail".
func fanSpec(modes ...topology.Mode) *topology.Spec {
	mk := func(name string) *topology.Service {
		return &topology.Service{Name: name, Class: topology.Logic, Replicas: 1,
			Demand: cluster.V(1, 150, 0.5, 5, 80),
			Limits: cluster.V(2, 600, 2, 50, 300)}
	}
	spec := &topology.Spec{
		Name:         "fan",
		Services:     map[string]*topology.Service{"front": mk("front"), "tail": mk("tail")},
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}
	root := &topology.Call{Service: "front", Compute: sim.Millisecond}
	for i, m := range modes {
		name := "leaf-" + string(rune('0'+i))
		spec.Services[name] = mk(name)
		root.Children = append(root.Children, topology.Child{Mode: m,
			Call: &topology.Call{Service: name, Compute: sim.Millisecond}})
	}
	root.Children = append(root.Children, topology.Child{Mode: topology.Seq,
		Call: &topology.Call{Service: "tail", Compute: sim.Millisecond}})
	spec.Endpoints = []topology.Endpoint{{Name: "get", Weight: 1, Root: root}}
	return spec
}

func scaleToZero(a *App, service string) {
	rs := a.Cluster().ReplicaSet(service)
	for _, c := range append([]*cluster.Container(nil), rs.Containers()...) {
		rs.RemoveReplica(c)
	}
}

// TestParGroupShedReentrancy: children of a Par group shed inside the loop
// that starts the group (no ready replica), so the parent frame hears from
// them — and, when every child sheds, re-enters advance — from its own child
// loop. The request must still finish exactly once; the Seq barrier after
// the group must run once, and only after the group's one live child (if
// any) has responded; and, with released frames poisoned instead of reused,
// no frame may be touched after release or released twice.
func TestParGroupShedReentrancy(t *testing.T) {
	retry := &RetryPolicy{MaxRetries: 2, Backoff: sim.Millisecond}
	for _, tc := range []struct {
		name   string
		shed   []string
		policy *RetryPolicy
	}{
		{"all-shed", []string{"leaf-0", "leaf-1", "leaf-2"}, nil},
		{"all-shed-retry", []string{"leaf-0", "leaf-1", "leaf-2"}, retry},
		{"last-live", []string{"leaf-0", "leaf-1"}, nil},
	} {
		eng, a, db := harness(t, fanSpec(topology.Par, topology.Par, topology.Par), 1)
		a.poison = true
		a.SetRetryPolicy(tc.policy)
		for _, svc := range tc.shed {
			scaleToZero(a, svc)
		}
		results, hooks := 0, 0
		a.SetResultHook(func(Result) { hooks++ })
		var res Result
		if err := a.Submit("get", func(r Result) { res = r; results++ }); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(10 * sim.Second)
		if results != 1 || hooks != 1 {
			t.Fatalf("%s: request finished %d times (hook %d), want once", tc.name, results, hooks)
		}
		if !res.Dropped || a.Dropped != 1 || a.Completed != 0 {
			t.Fatalf("%s: a shed child must drop the request: %+v dropped=%d completed=%d",
				tc.name, res, a.Dropped, a.Completed)
		}
		if n := a.Coord.PendingCount(); n != 0 {
			t.Fatalf("%s: %d traces left pending", tc.name, n)
		}
		spans := map[string]trace.Span{}
		for _, tr := range db.Select(tracedb.Query{IncludeDrop: true}) {
			for _, sp := range tr.AppendSpans(nil) {
				if _, dup := spans[service(tr, sp)]; dup {
					t.Fatalf("%s: %s served twice", tc.name, service(tr, sp))
				}
				spans[service(tr, sp)] = sp
			}
		}
		if want := 5 - len(tc.shed); len(spans) != want {
			t.Fatalf("%s: %d services served, want %d: %v", tc.name, len(spans), want, spans)
		}
		if live, ok := spans["leaf-2"]; ok && spans["tail"].Start < live.End() {
			t.Fatalf("%s: barrier started at %v, before the group's live child responded at %v",
				tc.name, spans["tail"].Start, live.End())
		}
	}
}

// TestFramesRecycleWithoutLeak drives the digest scenarios' worst mix —
// queue drops, retries, a replica set scaled to zero mid-burst — once with
// released frames and request contexts poisoned (any touch after release or
// double release panics) and once pooled, where every frame and context must
// be back on its freelist, each exactly once, when the engine drains.
func TestFramesRecycleWithoutLeak(t *testing.T) {
	run := func(poison bool) *App {
		spec := topology.SocialNetwork()
		eng := sim.NewEngine(3)
		cfg := cluster.DefaultConfig()
		cfg.QueueCap = 8
		cl := cluster.New(eng, cfg)
		for i := 0; i < 4; i++ {
			cl.AddNode(cluster.XeonProfile)
		}
		a, err := Deploy(eng, cl, spec, trace.NewCoordinator(eng, tracedb.New(tracedb.Forever, 0), cl))
		if err != nil {
			t.Fatal(err)
		}
		a.poison = poison
		a.SetRetryPolicy(&RetryPolicy{MaxRetries: 2, Backoff: 3 * sim.Millisecond})
		mix := sim.Stream(3, "mix")
		for i := 0; i < 400; i++ {
			eng.Schedule(sim.Time(i)*sim.Millisecond, func() { a.SubmitMix(mix, nil) })
		}
		eng.Schedule(150*sim.Millisecond, func() { scaleToZero(a, "text") })
		eng.RunUntil(30 * sim.Second)
		if a.Completed+a.Dropped != 400 || a.Dropped == 0 || a.Completed == 0 {
			t.Fatalf("completed=%d dropped=%d, want a mix summing to 400", a.Completed, a.Dropped)
		}
		if eng.Pending() != 0 {
			t.Fatalf("%d events still pending", eng.Pending())
		}
		return a
	}
	if a := run(true); len(a.shards[0].free) != 0 || len(a.shards[0].reqs) != 0 {
		t.Fatalf("poisoned run recycled %d frames, %d contexts", len(a.shards[0].free), len(a.shards[0].reqs))
	}
	a := run(false)
	seen := map[*frame]bool{}
	for _, f := range a.shards[0].free {
		if seen[f] {
			t.Fatal("frame on the freelist twice")
		}
		seen[f] = true
		if f.state != frameFree || f.ctx != nil || f.up != nil || f.target != nil {
			t.Fatalf("freelist frame not cleared: %+v", f)
		}
	}
	if len(a.shards[0].free) == 0 || len(a.shards[0].free) >= 400 {
		t.Fatalf("freelist holds %d frames; want the peak concurrency, far below one per request", len(a.shards[0].free))
	}
	checkReqPool(t, a, 400)
}

// checkReqPool checks the home shard's drained context freelist: each
// context on it once and cleared, fewer than one per request (the peak of
// requests in flight, not their count) — and no context on any other shard.
func checkReqPool(t *testing.T, a *App, requests int) {
	t.Helper()
	seen := map[*reqCtx]bool{}
	for _, ctx := range a.shards[a.home].reqs {
		if seen[ctx] {
			t.Fatal("request context on the freelist twice")
		}
		seen[ctx] = true
		if ctx.app != nil || ctx.trace != nil || ctx.onDone != nil || ctx.id != 0 || ctx.latency != 0 || ctx.dropped {
			t.Fatalf("freelist context not cleared: %+v", ctx)
		}
	}
	if n := len(seen); n == 0 || n >= requests {
		t.Fatalf("context freelist holds %d for %d requests; want the peak in flight", n, requests)
	}
	for i := range a.shards {
		if i != int(a.home) && len(a.shards[i].reqs) != 0 {
			t.Fatalf("shard %d, not home, pooled %d request contexts", i, len(a.shards[i].reqs))
		}
	}
}

// TestRequestContextLifetime: finish hands the context back only after the
// result hook and onDone have run — each of which may submit a request, and
// here onDone chains the next one. So the chain cycles through the two
// contexts of a finishing request and its successor, plus a third when the
// hook also submits (poisoned, a fresh one each time), and a context that
// has finished cannot finish again.
func TestRequestContextLifetime(t *testing.T) {
	for _, poison := range []bool{false, true} {
		eng, a, _ := harness(t, fanSpec(topology.Par, topology.Seq), 1)
		a.poison = poison
		hooked := 0
		a.SetResultHook(func(r Result) {
			hooked++
			if hooked == 5 { // a hook may submit too: a second, parallel chain
				if err := a.Submit("get", nil); err != nil {
					t.Fatal(err)
				}
			}
		})
		var ids []trace.TraceID
		var next func(Result)
		next = func(r Result) {
			ids = append(ids, r.Trace)
			if len(ids) < 20 {
				if err := a.Submit("get", next); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := a.Submit("get", next); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(10 * sim.Second)
		if len(ids) != 20 || hooked != 21 || a.Completed != 21 {
			t.Fatalf("poison=%v: chain of %d, %d hooked, %d completed; want 20, 21, 21", poison, len(ids), hooked, a.Completed)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("poison=%v: trace IDs %v not increasing: a context reused before its result was read", poison, ids)
			}
		}
		if want := map[bool]int{false: 3, true: 0}[poison]; len(a.shards[0].reqs) != want {
			t.Fatalf("poison=%v: %d contexts pooled, want %d", poison, len(a.shards[0].reqs), want)
		}
	}
	_, a, _ := harness(t, fanSpec(topology.Seq), 1)
	ctx := a.takeReq()
	ctx.app = a
	ctx.finish()
	defer func() {
		if r := recover(); r != "app: request context finished after release" {
			t.Fatalf("finishing a released context: recovered %v, want the release guard's panic", r)
		}
	}()
	ctx.finish()
}

// TestSteadyStateRequestAllocs: on a warm App a request allocates nothing,
// traced or not, for the spec's smallest endpoint as for one several times
// its size. Traced, the store keeps the newest keep traces, so once it has
// evicted as many of the endpoint's, each request reuses one: its header
// and its packed storage.
func TestSteadyStateRequestAllocs(t *testing.T) {
	const keep = 16
	spec, err := topology.Generate(topology.Params{Services: 100, Endpoints: 4, MaxFanout: 3, Depth: 5}, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{true, false} {
		eng := sim.NewEngine(1)
		cl := cluster.New(eng, cluster.DefaultConfig())
		for i := 0; i < 1+len(spec.Services)/8; i++ {
			cl.AddNode(cluster.XeonProfile)
		}
		var coord *trace.Coordinator
		if traced {
			coord = trace.NewCoordinator(eng, tracedb.New(0, keep), cl)
		}
		a, err := Deploy(eng, cl, spec, coord)
		if err != nil {
			t.Fatal(err)
		}
		small, large := "", ""
		minCalls, maxCalls := 0, 0
		for _, ep := range spec.Endpoints {
			n := a.resolve(ep.Root, nil, 0).size
			if small == "" || n < minCalls {
				small, minCalls = ep.Name, n
			}
			if n > maxCalls {
				large, maxCalls = ep.Name, n
			}
		}
		if maxCalls < 4*minCalls {
			t.Fatalf("endpoints span %d..%d calls; the comparison would be vacuous", minCalls, maxCalls)
		}
		allocs := func(endpoint string) float64 {
			request := func() {
				if err := a.Submit(endpoint, nil); err != nil {
					t.Fatal(err)
				}
				eng.Drain(1 << 20)
			}
			for range 2 * keep { // warm: frames, contexts, engine events, container records, queues, traces
				request()
			}
			return testing.AllocsPerRun(20, request)
		}
		aSmall, aLarge := allocs(small), allocs(large)
		if a.Dropped != 0 {
			t.Fatalf("traced=%v: %d requests dropped", traced, a.Dropped)
		}
		if aSmall != 0 || aLarge != 0 {
			t.Fatalf("traced=%v: allocs/request: %v at %d calls, %v at %d calls; want 0",
				traced, aSmall, minCalls, aLarge, maxCalls)
		}
	}
}

// TestEmitQueuedBound: Span.Queued holds 32 bits of µs. A delay at the bound
// is recorded exactly; one past it panics instead of truncating.
func TestEmitQueuedBound(t *testing.T) {
	_, a, _ := harness(t, fanSpec(topology.Seq), 1)
	n := a.resolve(a.Spec.Endpoints[0].Root, nil, 0)
	f := &frame{
		ctx:    &reqCtx{app: a, trace: a.Coord.StartTrace("get", 1)},
		node:   n,
		target: n.rs.Containers()[0],
	}
	f.emit(math.MaxUint32)
	a.Coord.Finish(f.ctx.trace, false)
	if got := f.ctx.trace.AppendSpans(nil)[0].Queued; got != math.MaxUint32 {
		t.Fatalf("Queued = %d, want %d", got, uint32(math.MaxUint32))
	}
	f.ctx.trace = a.Coord.StartTrace("get", 1) // the over-bound emit needs a live trace
	defer func() {
		if r := recover(); r != "app: queueing delay exceeds Span.Queued (2^32-1 µs)" {
			t.Fatalf("emit of a queueing delay past 2^32-1 µs: recovered %v, want the Queued guard's panic", r)
		}
	}()
	f.emit(math.MaxUint32 + 1)
}

// TestEmitDurBound: Span.Dur holds 32 bits of µs. A span lasting exactly the
// bound is recorded exactly; one µs longer panics instead of truncating.
func TestEmitDurBound(t *testing.T) {
	eng, a, _ := harness(t, fanSpec(topology.Seq), 1)
	n := a.resolve(a.Spec.Endpoints[0].Root, nil, 0)
	f := &frame{
		ctx:      &reqCtx{app: a, trace: a.Coord.StartTrace("get", 1)},
		node:     n,
		target:   n.rs.Containers()[0],
		dispatch: 1,
	}
	eng.RunUntil(math.MaxUint32 + 1)
	f.emit(0)
	a.Coord.Finish(f.ctx.trace, false)
	if s := f.ctx.trace.AppendSpans(nil)[0]; s.Dur != math.MaxUint32 || s.End() != eng.Now() {
		t.Fatalf("Dur = %d, End = %v; want %d, %v", s.Dur, s.End(), uint32(math.MaxUint32), eng.Now())
	}
	f.ctx.trace = a.Coord.StartTrace("get", 1) // the over-bound emit needs a live trace
	defer func() {
		if r := recover(); r != "app: span duration exceeds Span.Dur (2^32-1 µs)" {
			t.Fatalf("emit of a span longer than 2^32-1 µs: recovered %v, want the Dur guard's panic", r)
		}
	}()
	f.dispatch = 0
	f.emit(0)
}
