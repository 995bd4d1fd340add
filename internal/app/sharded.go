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

// ShardedApp executes a topology.Spec across the shards of a
// sim.ShardedEngine: every service's replica set lives wholly on one shard
// (with its own cluster of nodes), and every inter-service call — including
// calls between services that share a shard — travels as a ShardedEngine
// mail. Routing always paying the mail path is what makes the execution
// identical at any shard count: a one-shard run performs exactly the same
// sends with exactly the same keys as an eight-shard run, so the event
// sequence (and therefore every latency, drop, and counter) is
// byte-identical.
//
// Differences from App, by necessity of partition confinement: replica
// selection happens on the callee's shard (the caller cannot touch another
// shard's round-robin cursor), a no-ready-replica shed is observed by the
// caller one round-trip later rather than instantly, and spans are not
// emitted (the trace coordinator is a single-engine structure; the 10k
// sweep consumes latencies through the result hook instead).
type ShardedApp struct {
	Spec *topology.Spec

	se      *sim.ShardedEngine
	home    int
	shardOf map[string]int
	rsOf    map[string]*cluster.ReplicaSet
	callIdx map[*topology.Call]uint32
	delay   sim.Time // BaseRPCDelay; also the engine's lookahead

	// SLO is the end-to-end latency objective (spec's by default).
	SLO sim.Time

	// Cumulative request counters; owned by the home shard.
	Completed  uint64
	Dropped    uint64
	Violations uint64

	nextTrace uint64
	onResult  func(Result)
}

// Mail-key layout: (trace << 22) | (call index << 2) | direction. Each
// (trace, call, direction) triple is sent at most once per request, so keys
// are unique among mails sharing a timestamp — the ShardedEngine contract.
const (
	dirCall    = 0
	dirResult  = 1
	dirDrained = 2

	maxCallIdx = 1 << 20
)

func mailKey(tr uint64, idx uint32, dir uint64) uint64 {
	return tr<<22 | uint64(idx)<<2 | dir
}

// DeploySharded builds a sharded application over already-deployed per-shard
// clusters. assign maps every service to its shard; clusters[i] is shard i's
// cluster and must already hold replica sets for the services assigned to
// it (the harness deploys them with DeployServiceOn to realise a globally
// computed placement). home is the shard that owns request admission and
// result accounting; the workload generator must run on its engine.
func DeploySharded(se *sim.ShardedEngine, spec *topology.Spec, home int, assign map[string]int, clusters []*cluster.Cluster) (*ShardedApp, error) {
	if len(clusters) != se.Shards() {
		return nil, fmt.Errorf("app %s: %d clusters for %d shards", spec.Name, len(clusters), se.Shards())
	}
	if home < 0 || home >= se.Shards() {
		return nil, fmt.Errorf("app %s: home shard %d out of range", spec.Name, home)
	}
	if spec.BaseRPCDelay < se.Lookahead() {
		return nil, fmt.Errorf("app %s: BaseRPCDelay %v below engine lookahead %v", spec.Name, spec.BaseRPCDelay, se.Lookahead())
	}
	a := &ShardedApp{
		Spec:    spec,
		se:      se,
		home:    home,
		shardOf: make(map[string]int, len(spec.Services)),
		rsOf:    make(map[string]*cluster.ReplicaSet, len(spec.Services)),
		callIdx: make(map[*topology.Call]uint32),
		delay:   spec.BaseRPCDelay,
		SLO:     spec.SLO,
	}
	names := make([]string, 0, len(spec.Services))
	for name := range spec.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sh, ok := assign[name]
		if !ok || sh < 0 || sh >= se.Shards() {
			return nil, fmt.Errorf("app %s: service %s has no valid shard assignment", spec.Name, name)
		}
		rs := clusters[sh].ReplicaSet(name)
		if rs == nil {
			return nil, fmt.Errorf("app %s: service %s not deployed on shard %d", spec.Name, name, sh)
		}
		a.shardOf[name] = sh
		a.rsOf[name] = rs
	}
	// Number every workflow call by DFS in endpoint order — a pure function
	// of the spec, so mail keys are identical at every shard count.
	var n uint32
	for i := range spec.Endpoints {
		topology.Walk(spec.Endpoints[i].Root, func(c *topology.Call) {
			a.callIdx[c] = n
			n++
		})
	}
	if n >= maxCallIdx {
		return nil, fmt.Errorf("app %s: %d workflow calls exceed the %d mail-key limit", spec.Name, n, maxCallIdx)
	}
	return a, nil
}

// Engine returns the home shard's engine (the workload.Target clock).
func (a *ShardedApp) Engine() *sim.Engine { return a.se.Shard(a.home) }

// SetResultHook registers an observer invoked for every request outcome.
func (a *ShardedApp) SetResultHook(fn func(Result)) { a.onResult = fn }

// reqState tracks one request on the home shard.
type reqState struct {
	app     *ShardedApp
	tr      uint64
	typ     string
	start   sim.Time
	latency sim.Time
	dropped bool
	onDone  func(Result)
}

// Submit issues one request of the named endpoint type. It must be called
// from the home shard (at setup time or from an event executing on it).
func (a *ShardedApp) Submit(endpoint string, onDone func(Result)) error {
	ep := a.Spec.EndpointByName(endpoint)
	if ep == nil {
		return fmt.Errorf("app %s: unknown endpoint %q", a.Spec.Name, endpoint)
	}
	a.nextTrace++
	st := &reqState{app: a, tr: a.nextTrace, typ: ep.Name, start: a.Engine().Now(), onDone: onDone}
	a.call(a.home, st.tr, ep.Root,
		func(ok bool) {
			st.latency = a.Engine().Now() - st.start
			st.dropped = !ok
		},
		st.finish)
	return nil
}

// SubmitMix issues one request drawn from the endpoint mix using r,
// returning the chosen endpoint name.
func (a *ShardedApp) SubmitMix(r *rand.Rand, onDone func(Result)) (string, error) {
	name := pickEndpoint(a.Spec, r)
	return name, a.Submit(name, onDone)
}

// finish runs on the home shard once the request's whole workflow tree —
// background branches included — has drained.
func (st *reqState) finish() {
	a := st.app
	res := Result{Trace: trace.TraceID(st.tr), Type: st.typ, Latency: st.latency, Dropped: st.dropped}
	if st.dropped {
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
	if st.onDone != nil {
		st.onDone(res)
	}
}

// call dispatches one workflow call from the shard the caller is executing
// on. onResult(ok) fires on `from` when the call's response arrives (its
// awaited subtree done); onDrained fires on `from` when the call's entire
// subtree, background branches included, has finished. When both happen at
// the same instant they arrive as one mail with the result applied first.
func (a *ShardedApp) call(from int, tr uint64, c *topology.Call, onResult func(ok bool), onDrained func()) {
	idx := a.callIdx[c]
	to := a.shardOf[c.Service]
	a.se.Send(from, to, a.delay, mailKey(tr, idx, dirCall), func() {
		a.serve(from, to, tr, idx, c, onResult, onDrained)
	})
}

// serving is one call being served on the callee's shard: the container
// work handler for its local compute, carrying what the reply needs.
type serving struct {
	a         *ShardedApp
	from, to  int
	tr        uint64
	idx       uint32
	c         *topology.Call
	hop       sim.Time
	onResult  func(ok bool)
	onDrained func()
}

// fail replies "failed and drained" after delay.
func (s *serving) fail(delay sim.Time) {
	s.a.se.Send(s.to, s.from, delay, mailKey(s.tr, s.idx, dirResult), func() {
		s.onResult(false)
		s.onDrained()
	})
}

// WorkDone implements cluster.WorkHandler.
func (s *serving) WorkDone(_, _ sim.Time) {
	s.a.runChildren(s.from, s.to, s.tr, s.idx, s.c, s.hop, s.onResult, s.onDrained)
}

// WorkDropped implements cluster.WorkHandler.
func (s *serving) WorkDropped() { s.fail(s.hop) }

// serve runs on the callee's shard: pick a replica, pay the instance network
// delay, occupy a worker for the compute, run child groups, reply.
func (a *ShardedApp) serve(from, to int, tr uint64, idx uint32, c *topology.Call, onResult func(ok bool), onDrained func()) {
	sv := &serving{a: a, from: from, to: to, tr: tr, idx: idx, c: c, onResult: onResult, onDrained: onDrained}
	target := a.rsOf[c.Service].Pick()
	if target == nil { // no ready replica: shed at routing
		sv.fail(a.delay)
		return
	}
	nd := target.NetDelay()
	sv.hop = a.delay + nd
	a.se.Shard(to).Schedule(nd, func() {
		target.Submit(cluster.Work{
			Base:    c.Compute,
			Demand:  a.Spec.Services[c.Service].Demand,
			Handler: sv,
		})
	})
}

// callState tracks one in-progress serve: group progression for the awaited
// children and a drain count covering every child, background included.
type callState struct {
	ok         bool
	resultSent bool
	drainLeft  int
}

// runChildren executes the call's children with App's composition semantics
// (consecutive Par children concurrent, Seq barriers, Background fired and
// not awaited), then replies. The result mail is sent when the awaited
// groups finish; the drained mail when every child subtree has drained. If
// those coincide — the common case, with no background work — they collapse
// into a single mail.
func (a *ShardedApp) runChildren(from, to int, tr uint64, idx uint32, c *topology.Call, hop sim.Time, onResult func(ok bool), onDrained func()) {
	st := &callState{ok: true}
	maybeDrained := func() {
		if st.drainLeft == 0 && st.resultSent {
			a.se.Send(to, from, hop, mailKey(tr, idx, dirDrained), onDrained)
		}
	}
	childDrained := func() {
		st.drainLeft--
		maybeDrained()
	}
	sendResult := func() {
		st.resultSent = true
		if st.drainLeft == 0 {
			ok := st.ok
			a.se.Send(to, from, hop, mailKey(tr, idx, dirResult), func() {
				onResult(ok)
				onDrained()
			})
			return
		}
		ok := st.ok
		a.se.Send(to, from, hop, mailKey(tr, idx, dirResult), func() { onResult(ok) })
		// drained follows later, via childDrained → maybeDrained.
	}

	var groups [][]*topology.Call
	children := c.Children
	for i := 0; i < len(children); i++ {
		ch := children[i]
		switch ch.Mode {
		case topology.Background:
			st.drainLeft++
			a.call(to, tr, ch.Call, func(bool) {}, childDrained)
		case topology.Par:
			g := []*topology.Call{ch.Call}
			for i+1 < len(children) && children[i+1].Mode == topology.Par {
				i++
				g = append(g, children[i].Call)
			}
			groups = append(groups, g)
		case topology.Seq:
			groups = append(groups, []*topology.Call{ch.Call})
		}
	}
	var runGroup func(i int)
	runGroup = func(i int) {
		if i >= len(groups) {
			sendResult()
			return
		}
		remaining := len(groups[i])
		for _, cc := range groups[i] {
			st.drainLeft++
			a.call(to, tr, cc,
				func(childOK bool) {
					if !childOK {
						st.ok = false
					}
					remaining--
					if remaining == 0 {
						runGroup(i + 1)
					}
				},
				childDrained)
		}
	}
	runGroup(0)
}
