// Package app executes microservice applications on the simulated cluster:
// it deploys a topology.Spec's services as replica sets, routes user
// requests through endpoint workflow trees (sequential, parallel, and
// background composition), and emits spans to the tracing coordinator —
// producing the execution history graphs FIRM's Extractor consumes.
//
// Names stay at the edges. An endpoint's workflow tree is resolved against
// the cluster once, on its first request, into nodes that hold the serving
// replica set and demand vector; from there a call is routed, charged and
// traced by pointer and by the cluster's integer IDs (ReplicaSet.ID,
// Container.ID), which is what the emitted spans carry. Service names are
// read again only to key an armed edge fault.
//
// There is one request path: a workflow call is a pooled frame (frame.go)
// that is its own engine event, container work handler and the caller its
// children report to and drain into. Deploy runs the frames on one engine;
// DeploySharded runs the same frames across the shards of a
// sim.ShardedEngine, where a frame is also the mail — it belongs to one
// shard at a time and changes owner only by being sent. The one semantic
// difference is where a call is routed: a caller may not touch another
// shard's round-robin cursor, so there the frame travels to the callee's
// shard first and picks its replica on arrival.
package app

import (
	"fmt"
	"math/rand"
	"sort"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
)

// Result reports the outcome of one user request.
type Result struct {
	Trace   trace.TraceID
	Type    string
	Latency sim.Time
	Dropped bool
}

// App is a deployed application instance.
type App struct {
	Spec *topology.Spec
	// Coord collects the spans; nil emits none. It is a single-engine
	// structure, so a sharded deployment has none.
	Coord *trace.Coordinator

	// eng is where requests are admitted: the only engine, or that of the
	// home shard of a sharded deployment — whose engine is se (nil
	// otherwise). nextTrace numbers requests where no Coordinator does.
	// shards is per-shard state, one entry on one engine.
	eng       *sim.Engine
	se        *sim.ShardedEngine
	home      int32
	nextTrace trace.TraceID
	shards    []shard

	// SLO is the end-to-end latency objective; Calibrate sets it from the
	// uncontended latency profile.
	SLO sim.Time

	// Cumulative request counters.
	Completed  uint64
	Dropped    uint64
	Violations uint64

	// onResult, if set, observes every request outcome (used by workload
	// recorders and the FIRM detector).
	onResult func(Result)

	// retry, if set, re-submits shed or dropped calls (client-side retry
	// amplification — the retry-storm degradation mode). Nil means the
	// pre-scenario behavior: one attempt per call.
	retry *RetryPolicy

	// edgeFaults, if non-empty, degrades specific caller→callee edges with
	// added delay and probabilistic loss (partial network partitions).
	// faultRng drives the loss draws; it must be scenario-seeded so runs
	// stay deterministic per (Spec, seed).
	edgeFaults map[Edge]EdgeFault
	faultRng   *rand.Rand

	// poison is set by tests only: released frames and request contexts are
	// then never reused, so any touch of a released frame trips its state
	// check and any of a released context finds it cleared.
	poison bool
	// roots holds each endpoint's resolved call tree, by position in
	// Spec.Endpoints; nil until the endpoint's first request.
	roots []*node
}

// shard is one engine shard as the request path sees it: the clock its
// calls schedule on, the cluster serving them, and the freelist their frames
// cycle through — plus, on the shard that admits requests, the one their
// contexts cycle through. The pools belong to the App and die with it:
// nothing is shared between simulations. A shard is one cache line: shards
// push and pop concurrently.
type shard struct {
	eng  *sim.Engine
	cl   *cluster.Cluster
	free []*frame
	reqs []*reqCtx // request contexts; only the home shard's is used
}

// node is one topology.Call resolved against this App's cluster: what route
// and Fire need of the call without a lookup by service name. The trees are
// the App's own — the Spec may be shared by concurrent deployments and is
// never written.
type node struct {
	call   *topology.Call
	rs     *cluster.ReplicaSet // nil if the service is not deployed: calls shed at routing
	demand cluster.Vector
	kids   []*node // parallel to call.Children
	// size is the number of calls in the subtree — for an endpoint root, the
	// spans a request emits when nothing is shed or retried.
	size int
	// shard hosts the callee's replica set; idx numbers the call by DFS in
	// endpoint order — a pure function of the spec, so the mail keys built
	// from it are the same at every shard count. Both unread on one engine.
	shard int32
	idx   uint32
}

// resolve builds the call tree under root, in two slabs: a tree is walked
// parent to child on every request, and its nodes should sit together.
// assign maps a service to its shard (nil on a single engine: everything is
// on shard 0) and first is the root's DFS number.
func (a *App) resolve(root *topology.Call, assign map[string]int, first uint32) *node {
	calls := 0
	topology.Walk(root, func(*topology.Call) { calls++ })
	nodes, kids := make([]node, calls), make([]*node, calls)
	var build func(c *topology.Call) *node
	build = func(c *topology.Call) *node {
		n := &nodes[0]
		nodes = nodes[1:]
		sh := assign[c.Service]
		*n = node{call: c, rs: a.shards[sh].cl.ReplicaSet(c.Service), kids: kids[:len(c.Children):len(c.Children)], size: 1,
			shard: int32(sh), idx: first}
		first++
		kids = kids[len(c.Children):]
		if svc := a.Spec.Services[c.Service]; svc != nil {
			n.demand = svc.Demand
		}
		for i, ch := range c.Children {
			n.kids[i] = build(ch.Call)
			n.size += n.kids[i].size
		}
		return n
	}
	return build(root)
}

// RetryPolicy models client-side retries: a shed or dropped call is
// re-submitted up to MaxRetries times after a fixed Backoff. Under
// overload, retries amplify offered load — the storm the scenario library
// exploits.
type RetryPolicy struct {
	MaxRetries int      // re-submissions per call beyond the first attempt
	Backoff    sim.Time // wait before each re-submission
}

// Edge identifies a directed caller→callee service pair. The caller of an
// endpoint root is the pseudo-service "client".
type Edge struct {
	From, To string
}

// EdgeFault degrades one dependency edge: Delay is added to each RPC hop
// on the edge and Drop is the probability an RPC on the edge is lost
// before reaching the callee (a lost RPC behaves like a routing shed:
// retriable, no span).
type EdgeFault struct {
	Delay sim.Time
	Drop  float64
}

// SetRetryPolicy arms (or, with nil, disarms) client-side retries.
func (a *App) SetRetryPolicy(p *RetryPolicy) { a.retry = p }

// RetryPolicy returns the armed retry policy, or nil.
func (a *App) RetryPolicy() *RetryPolicy { return a.retry }

// SetEdgeFaults installs per-edge network faults. rng drives drop draws
// and must be seeded via sim.DeriveSeed by the caller; a nil map (or nil
// rng with any Drop > 0) restores fault-free behavior. No RNG is consumed
// on edges without faults, so arming faults on edge X does not perturb
// traffic elsewhere. A sharded deployment routes calls on every shard at
// once, which one loss stream cannot serve: it takes Delay faults only.
func (a *App) SetEdgeFaults(faults map[Edge]EdgeFault, rng *rand.Rand) {
	if a.se != nil {
		for _, ef := range faults {
			if ef.Drop > 0 {
				panic("app: a sharded deployment takes edge-fault Delay only: loss needs a stream per shard")
			}
		}
	}
	a.edgeFaults = faults
	a.faultRng = rng
}

// reqCtx is one in-flight request. It is written only where the request was
// admitted: its root frame reports the outcome there, and finishes it once
// the whole call tree has drained. Contexts cycle through the freelist of
// that shard (takeReq, finish), so a request allocates only what the trace
// store keeps: its Trace and the trace's packed spans.
type reqCtx struct {
	app     *App
	trace   *trace.Trace // pending until finish seals it; nil without a Coordinator
	id      trace.TraceID
	start   sim.Time
	latency sim.Time // set, with dropped, when the root call reports
	onDone  func(Result)
	ep      int32 // position in Spec.Endpoints
	dropped bool
}

// Deploy builds a cluster application: one replica set per service with the
// spec's initial replica counts and limits. Containers start ready. Services
// deploy in sorted name order so container IDs and placement are
// reproducible run to run.
func Deploy(eng *sim.Engine, cl *cluster.Cluster, spec *topology.Spec, coord *trace.Coordinator) (*App, error) {
	a := &App{Spec: spec, Coord: coord, eng: eng, SLO: spec.SLO,
		shards: []shard{{eng: eng, cl: cl}}, roots: make([]*node, len(spec.Endpoints))}
	if err := deployServices(spec, cl); err != nil {
		return nil, err
	}
	return a, nil
}

// deployServices deploys spec's services onto cl in sorted name order.
func deployServices(spec *topology.Spec, cl *cluster.Cluster) error {
	for _, name := range sortedServices(spec) {
		svc := spec.Services[name]
		if _, err := cl.DeployService(svc.Name, svc.Replicas, svc.Limits); err != nil {
			return fmt.Errorf("app %s: %w", spec.Name, err)
		}
	}
	return nil
}

// Reset deploys the application again, onto its cluster, which must have
// been Reset with the engine. The App is then what Deploy built — the spec's
// SLO, zero counters, no result hook, retry policy or edge faults, call trees
// resolved afresh — except that its frame and request-context pools keep
// what they hold. Requests still in flight are abandoned. It is for a
// single-engine deployment.
func (a *App) Reset() error {
	if a.se != nil {
		panic("app: Reset of a sharded deployment")
	}
	clear(a.roots)
	*a = App{Spec: a.Spec, Coord: a.Coord, eng: a.eng, SLO: a.Spec.SLO,
		shards: a.shards, roots: a.roots, poison: a.poison}
	return deployServices(a.Spec, a.Cluster())
}

func sortedServices(spec *topology.Spec) []string {
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// maxCallIdx bounds a sharded deployment's workflow calls: the mail key
// (frame.key) gives the call number 20 bits.
const maxCallIdx = 1 << 20

// DeploySharded builds an application over the shards of se. Every
// service's replica set lives wholly on one shard: assign maps a service to
// its shard, and clusters[i] is shard i's cluster, which must already hold
// the replica sets of the services assigned to it (the harness deploys them
// with DeployServiceOn to realise a globally computed placement). home is
// the shard that admits requests and accounts for their results: Submit,
// the workload generator and the result hooks run on its engine.
//
// Every call travels as a ShardedEngine mail, also between services that
// share a shard, so a one-shard run performs exactly the sends of an
// eight-shard run and every latency, drop and counter is byte-identical at
// any shard count. A call is routed on the callee's shard, so a
// no-ready-replica shed reaches the caller one hop later, not at once.
func DeploySharded(se *sim.ShardedEngine, spec *topology.Spec, home int, assign map[string]int, clusters []*cluster.Cluster) (*App, error) {
	if len(clusters) != se.Shards() {
		return nil, fmt.Errorf("app %s: %d clusters for %d shards", spec.Name, len(clusters), se.Shards())
	}
	if home < 0 || home >= se.Shards() {
		return nil, fmt.Errorf("app %s: home shard %d out of range", spec.Name, home)
	}
	if spec.BaseRPCDelay < se.Lookahead() {
		return nil, fmt.Errorf("app %s: BaseRPCDelay %v below engine lookahead %v", spec.Name, spec.BaseRPCDelay, se.Lookahead())
	}
	for _, name := range sortedServices(spec) {
		sh, ok := assign[name]
		if !ok || sh < 0 || sh >= se.Shards() {
			return nil, fmt.Errorf("app %s: service %s has no valid shard assignment", spec.Name, name)
		}
		if clusters[sh].ReplicaSet(name) == nil {
			return nil, fmt.Errorf("app %s: service %s not deployed on shard %d", spec.Name, name, sh)
		}
	}
	a := &App{Spec: spec, eng: se.Shard(home), se: se, home: int32(home), SLO: spec.SLO,
		shards: make([]shard, se.Shards()), roots: make([]*node, len(spec.Endpoints))}
	for i := range a.shards {
		a.shards[i] = shard{eng: se.Shard(i), cl: clusters[i]}
	}
	// Resolved up front, not on first request: the DFS numbering runs across
	// endpoints.
	var calls uint32
	for i := range spec.Endpoints {
		a.roots[i] = a.resolve(spec.Endpoints[i].Root, assign, calls)
		calls += uint32(a.roots[i].size)
	}
	if calls >= maxCallIdx {
		return nil, fmt.Errorf("app %s: %d workflow calls exceed the %d mail-key limit", spec.Name, calls, maxCallIdx)
	}
	return a, nil
}

// Cluster returns the hosting cluster (the home shard's, when sharded).
func (a *App) Cluster() *cluster.Cluster { return a.shards[a.home].cl }

// Engine returns the engine requests are submitted on (the home shard's).
func (a *App) Engine() *sim.Engine { return a.eng }

// SetResultHook registers an observer invoked for every request outcome.
func (a *App) SetResultHook(fn func(Result)) { a.onResult = fn }

// Submit issues one request of the named endpoint type. onDone may be nil.
// On a sharded deployment it must be called from the home shard (at setup
// time or from an event executing on it).
func (a *App) Submit(endpoint string, onDone func(Result)) error {
	eps := a.Spec.Endpoints
	i := 0
	for i < len(eps) && eps[i].Name != endpoint {
		i++
	}
	if i == len(eps) {
		return fmt.Errorf("app %s: unknown endpoint %q", a.Spec.Name, endpoint)
	}
	a.submit(i, onDone)
	return nil
}

// submit issues one request of the endpoint at position i of Spec.Endpoints.
func (a *App) submit(i int, onDone func(Result)) {
	if a.roots[i] == nil {
		a.roots[i] = a.resolve(a.Spec.Endpoints[i].Root, nil, 0)
	}
	ctx := a.takeReq()
	ctx.app, ctx.ep, ctx.start, ctx.onDone = a, int32(i), a.eng.Now(), onDone
	if a.Coord != nil {
		ctx.trace = a.Coord.StartTrace(a.Spec.Endpoints[i].Name, a.roots[i].size)
		ctx.id = ctx.trace.ID
	} else {
		a.nextTrace++
		ctx.id = a.nextTrace
	}
	a.call(ctx, nil, 0, "client", a.roots[i], false)
}

// pickEndpoint draws an endpoint — its position in spec.Endpoints — from the
// spec's weighted mix with one r.Float64() draw (the last endpoint absorbs
// rounding).
func pickEndpoint(spec *topology.Spec, r *rand.Rand) int {
	x := r.Float64() * spec.TotalWeight()
	for i := range spec.Endpoints {
		x -= spec.Endpoints[i].Weight
		if x <= 0 {
			return i
		}
	}
	return len(spec.Endpoints) - 1
}

// SubmitMix issues one request drawn from the endpoint mix using r,
// returning the chosen endpoint name.
func (a *App) SubmitMix(r *rand.Rand, onDone func(Result)) (string, error) {
	i := pickEndpoint(a.Spec, r)
	a.submit(i, onDone)
	return a.Spec.Endpoints[i].Name, nil
}

// takeReq pops a request context off the home shard's freelist.
//
//firmvet:noalloc
func (a *App) takeReq() *reqCtx {
	sh := &a.shards[a.home]
	if n := len(sh.reqs); n > 0 {
		ctx := sh.reqs[n-1]
		sh.reqs[n-1] = nil
		sh.reqs = sh.reqs[:n-1]
		return ctx
	}
	//firmvet:allow noalloc -- freelist warm-up miss; the home shard allocates one context per concurrently in-flight request, then recycles them
	return &reqCtx{}
}

// finish seals the trace and reports the result. The root frame calls it
// once, when it has reported the outcome AND every call of the request —
// background work and pending retries included — has drained; on a sharded
// deployment it runs on the home shard (finishedMail). The context goes
// back to the freelist only after both callbacks have run, since either may
// submit a new request. Clearing it leaves app nil, which finish rejects,
// so a released context cannot finish twice.
//
//firmvet:noalloc
func (ctx *reqCtx) finish() {
	a := ctx.app
	if a == nil {
		panic("app: request context finished after release")
	}
	if ctx.trace != nil {
		a.Coord.Finish(ctx.trace, ctx.dropped)
	}
	res := Result{Trace: ctx.id, Type: a.Spec.Endpoints[ctx.ep].Name, Latency: ctx.latency, Dropped: ctx.dropped}
	if ctx.dropped {
		a.Dropped++
	} else {
		a.Completed++
		if a.SLO > 0 && res.Latency > a.SLO {
			a.Violations++
		}
	}
	if a.onResult != nil {
		a.onResult(res)
	}
	if ctx.onDone != nil {
		ctx.onDone(res)
	}
	sh := &a.shards[a.home]
	*ctx = reqCtx{}
	if !a.poison {
		sh.reqs = append(sh.reqs, ctx)
	}
}

// Calibrate measures the uncontended latency profile by running n requests
// of each endpoint at low rate on an idle cluster and sets
// SLO = P99 × margin, following the paper's setup where SLOs are defined
// relative to normal-operation latency. It returns the measured P99 (ms).
// It drives the engine itself, so it is for a single-engine deployment.
func (a *App) Calibrate(n int, margin float64) float64 {
	var lats []float64
	interval := 5 * sim.Millisecond
	t := sim.Time(0)
	for i := 0; i < n; i++ {
		for _, ep := range a.Spec.Endpoints {
			name := ep.Name
			a.eng.Schedule(t, func() {
				_ = a.Submit(name, func(r Result) {
					if !r.Dropped {
						lats = append(lats, r.Latency.Millis())
					}
				})
			})
			t += interval
		}
	}
	a.eng.RunUntil(a.eng.Now() + t + 30*sim.Second)
	if len(lats) == 0 {
		return 0
	}
	p99 := percentile(lats, 99)
	a.SLO = sim.FromMillis(p99 * margin)
	return p99
}

func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ { // insertion sort; calibration sets are small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s) == 0 {
		return 0
	}
	idx := int(p / 100 * float64(len(s)-1))
	return s[idx]
}
