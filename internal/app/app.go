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
	Spec  *topology.Spec
	Coord *trace.Coordinator

	eng *sim.Engine
	cl  *cluster.Cluster

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

	// free recycles call frames (see frame.go). The pool belongs to the App
	// and dies with it: nothing is shared between simulations.
	free []*frame
	// poison is set by tests only: released frames are then never reused,
	// so any touch of a released frame trips its state check.
	poison bool
	// roots holds each endpoint's resolved call tree, by position in
	// Spec.Endpoints; nil until the endpoint's first request.
	roots []*node
}

// node is one topology.Call resolved against this App's cluster: what begin
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
}

// resolve builds the call tree under root, in two slabs: a tree is walked
// parent to child on every request, and its nodes should sit together.
func (a *App) resolve(root *topology.Call) *node {
	calls := 0
	topology.Walk(root, func(*topology.Call) { calls++ })
	nodes, kids := make([]node, calls), make([]*node, calls)
	var build func(c *topology.Call) *node
	build = func(c *topology.Call) *node {
		n := &nodes[0]
		nodes = nodes[1:]
		*n = node{call: c, rs: a.cl.ReplicaSet(c.Service), kids: kids[:len(c.Children):len(c.Children)], size: 1}
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
// traffic elsewhere.
func (a *App) SetEdgeFaults(faults map[Edge]EdgeFault, rng *rand.Rand) {
	a.edgeFaults = faults
	a.faultRng = rng
}

// reqCtx tracks one in-flight request across its call frames.
type reqCtx struct {
	app         *App
	trace       *trace.Trace // pending until maybeFinish seals it
	start       sim.Time
	outstanding int  // calls not yet finished (incl. background and pending retries)
	rootDone    bool // root call completed or dropped
	dropped     bool
	latency     sim.Time
	onDone      func(Result)
	finished    bool
}

// Deploy builds a cluster application: one replica set per service with the
// spec's initial replica counts and limits. Containers start ready. Services
// deploy in sorted name order so container IDs and placement are
// reproducible run to run.
func Deploy(eng *sim.Engine, cl *cluster.Cluster, spec *topology.Spec, coord *trace.Coordinator) (*App, error) {
	a := &App{Spec: spec, Coord: coord, eng: eng, cl: cl, SLO: spec.SLO, roots: make([]*node, len(spec.Endpoints))}
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		svc := spec.Services[name]
		if _, err := cl.DeployService(svc.Name, svc.Replicas, svc.Limits); err != nil {
			return nil, fmt.Errorf("app %s: %w", spec.Name, err)
		}
	}
	return a, nil
}

// Cluster returns the hosting cluster.
func (a *App) Cluster() *cluster.Cluster { return a.cl }

// Engine returns the simulation engine.
func (a *App) Engine() *sim.Engine { return a.eng }

// SetResultHook registers an observer invoked for every request outcome.
func (a *App) SetResultHook(fn func(Result)) { a.onResult = fn }

// Submit issues one request of the named endpoint type. onDone may be nil.
func (a *App) Submit(endpoint string, onDone func(Result)) error {
	eps := a.Spec.Endpoints
	i := 0
	for i < len(eps) && eps[i].Name != endpoint {
		i++
	}
	if i == len(eps) {
		return fmt.Errorf("app %s: unknown endpoint %q", a.Spec.Name, endpoint)
	}
	if a.roots[i] == nil {
		a.roots[i] = a.resolve(eps[i].Root)
	}
	ctx := &reqCtx{
		app:    a,
		trace:  a.Coord.StartTrace(endpoint, a.roots[i].size),
		start:  a.eng.Now(),
		onDone: onDone,
	}
	a.call(ctx, nil, 0, "client", a.roots[i], false)
	return nil
}

// pickEndpoint draws an endpoint name from the spec's weighted mix with one
// r.Float64() draw (the last endpoint absorbs rounding).
func pickEndpoint(spec *topology.Spec, r *rand.Rand) string {
	x := r.Float64() * spec.TotalWeight()
	for _, ep := range spec.Endpoints {
		x -= ep.Weight
		if x <= 0 {
			return ep.Name
		}
	}
	return spec.Endpoints[len(spec.Endpoints)-1].Name
}

// SubmitMix issues one request drawn from the endpoint mix using r,
// returning the chosen endpoint name.
func (a *App) SubmitMix(r *rand.Rand, onDone func(Result)) (string, error) {
	name := pickEndpoint(a.Spec, r)
	return name, a.Submit(name, onDone)
}

// maybeFinish seals the trace once the root has completed AND every span
// (including background work) has been emitted, then reports the result.
func (ctx *reqCtx) maybeFinish() {
	if ctx.finished || !ctx.rootDone || ctx.outstanding != 0 {
		return
	}
	ctx.finished = true
	a := ctx.app
	a.Coord.Finish(ctx.trace, ctx.dropped)
	res := Result{Trace: ctx.trace.ID, Type: ctx.trace.Type, Latency: ctx.latency, Dropped: ctx.dropped}
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
}

// Calibrate measures the uncontended latency profile by running n requests
// of each endpoint at low rate on an idle cluster and sets
// SLO = P99 × margin, following the paper's setup where SLOs are defined
// relative to normal-operation latency. It returns the measured P99 (ms).
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
