// Package topology models the four microservice benchmarks the paper
// evaluates on (§4.1): DeathStarBench's Social Network (36 services), Media
// Service (38) and Hotel Reservation (15), and the Train-Ticket booking
// system (41). Each application is a service dependency graph plus, per
// request type, an execution workflow tree covering the paper's three
// communication patterns (§3.2): sequential, parallel, and background.
//
// The real benchmarks are polyglot codebases; what FIRM's control plane
// observes is their graph structure, per-service resource demand mix, and
// service times — which is what this package encodes.
package topology

import (
	"fmt"
	"sort"

	"firm/internal/cluster"
	"firm/internal/sim"
)

// Mode classifies how a child call relates to its parent in the workflow
// (§3.2: parallel, sequential, background).
type Mode int

// Workflow composition modes.
const (
	// Seq children execute after the previous child group completes and
	// must finish before the next group starts (happens-before).
	Seq Mode = iota
	// Par children in a consecutive run execute concurrently.
	Par
	// Background children are fire-and-forget: they do not return a value
	// to the parent and are excluded from critical paths.
	Background
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Seq:
		return "seq"
	case Par:
		return "par"
	case Background:
		return "background"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Call is a vertex in an endpoint's workflow tree: invoke Service, perform
// Compute units of local work, then invoke Children per their modes.
type Call struct {
	Service  string
	Compute  sim.Time
	Children []Child
}

// Child attaches a call with its composition mode.
type Child struct {
	Mode Mode
	Call *Call
}

// Endpoint is one user-facing request type with its arrival mix weight.
type Endpoint struct {
	Name   string
	Weight float64
	Root   *Call
}

// ServiceClass captures a service's dominant resource profile, which sets
// its per-request demand vector and default container limits.
type ServiceClass int

// Service classes by dominant resource.
const (
	Web   ServiceClass = iota // lightweight request routing (nginx, gateways)
	Logic                     // CPU-bound business logic
	Cache                     // memory-bandwidth/LLC-heavy (memcached, redis)
	DB                        // disk-I/O-heavy (mongodb, mysql)
	Media                     // memory+network heavy (video/image handling)
)

// demand returns the per-request resource demand rates for a class:
// V(cpu, membw MB/s, llc MB, io MB/s, net Mbps) held while a request is
// being processed.
func (sc ServiceClass) demand() cluster.Vector {
	switch sc {
	case Web:
		return cluster.V(1, 150, 0.5, 5, 80)
	case Logic:
		return cluster.V(1, 300, 1.0, 10, 40)
	case Cache:
		return cluster.V(1, 900, 3.0, 5, 100)
	case DB:
		return cluster.V(1, 400, 1.5, 120, 60)
	case Media:
		return cluster.V(1, 1200, 2.0, 60, 300)
	}
	return cluster.V(1, 200, 1, 10, 50)
}

// limits returns the default (initial, pre-FIRM) container limits for a
// class — deliberately moderate so that load spikes and anomalies create
// contention the resource manager must resolve.
func (sc ServiceClass) limits() cluster.Vector {
	switch sc {
	case Web:
		return cluster.V(2, 600, 2, 50, 300)
	case Logic:
		return cluster.V(2, 900, 3, 60, 150)
	case Cache:
		return cluster.V(2, 2200, 8, 50, 300)
	case DB:
		return cluster.V(2, 1100, 4, 350, 200)
	case Media:
		return cluster.V(2, 3000, 6, 180, 800)
	}
	return cluster.V(2, 800, 3, 60, 150)
}

// Service describes one microservice in an application.
type Service struct {
	Name     string
	Class    ServiceClass
	Replicas int
	Demand   cluster.Vector
	Limits   cluster.Vector
}

// Spec is a complete application model.
type Spec struct {
	Name      string
	Services  map[string]*Service
	Endpoints []Endpoint
	// SLO is the end-to-end latency objective for the application. It is
	// calibrated as uncontended-P99 × margin in experiment setup.
	SLO sim.Time
	// BaseRPCDelay is the uncontended one-way network hop latency.
	BaseRPCDelay sim.Time
}

// builder accumulates services while workflows are declared, so every
// service referenced by a Call is registered exactly once.
type builder struct {
	spec *Spec
}

func newBuilder(name string) *builder {
	return &builder{spec: &Spec{
		Name:         name,
		Services:     make(map[string]*Service),
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}}
}

// svc registers (or returns) a service with the given class.
func (b *builder) svc(name string, class ServiceClass) string {
	if s, ok := b.spec.Services[name]; ok {
		if s.Class != class {
			panic(fmt.Sprintf("topology: service %s redeclared with class %v vs %v", name, class, s.Class))
		}
		return name
	}
	b.spec.Services[name] = &Service{
		Name:     name,
		Class:    class,
		Replicas: 1,
		Demand:   class.demand(),
		Limits:   class.limits(),
	}
	return name
}

// storagePair registers a memcached+mongodb backend pair for a logical
// store and returns their names. DeathStarBench backends follow this
// cache-in-front-of-database idiom.
func (b *builder) storagePair(store string) (mc, mongo string) {
	mc = b.svc(store+"-memcached", Cache)
	mongo = b.svc(store+"-mongodb", DB)
	return mc, mongo
}

// call builds a workflow vertex for a registered service.
func (b *builder) call(service string, compute sim.Time, children ...Child) *Call {
	if _, ok := b.spec.Services[service]; !ok {
		panic("topology: call to unregistered service " + service)
	}
	return &Call{Service: service, Compute: compute, Children: children}
}

// cached builds the canonical lookup pattern: hit the memcached tier, then
// sequentially fall through to mongodb.
func (b *builder) cached(store string, mcTime, dbTime sim.Time) []Child {
	mc, mongo := b.storagePair(store)
	return []Child{
		{Seq, b.call(mc, mcTime)},
		{Seq, b.call(mongo, dbTime)},
	}
}

func (b *builder) endpoint(name string, weight float64, root *Call) {
	b.spec.Endpoints = append(b.spec.Endpoints, Endpoint{Name: name, Weight: weight, Root: root})
}

func ms(x float64) sim.Time { return sim.FromMillis(x) }

// Walk visits every call in the workflow tree in depth-first order. It
// assumes an acyclic workflow — the invariant Validate enforces; on a
// cyclic graph Walk recurses without bound, so validate untrusted specs
// first.
func Walk(c *Call, visit func(*Call)) {
	if c == nil {
		return
	}
	visit(c)
	for _, ch := range c.Children {
		Walk(ch.Call, visit)
	}
}

// Validate checks spec consistency: every endpoint call references a
// registered service, workflow graphs are acyclic, endpoint names are
// unique with positive weights, every service is reachable from at least
// one endpoint, and every service has Replicas >= 1 with non-negative
// demand/limit vectors. Generated specs (Generate) are guaranteed to pass;
// hand-built or deserialized specs should be validated before deployment —
// in particular the cycle check is what makes Walk's unbounded recursion
// safe everywhere else.
func (s *Spec) Validate() error {
	if len(s.Endpoints) == 0 {
		return fmt.Errorf("topology %s: no endpoints", s.Name)
	}
	names := s.serviceNames()
	for _, name := range names {
		svc := s.Services[name]
		if svc == nil {
			return fmt.Errorf("topology %s: service %s is nil", s.Name, name)
		}
		if svc.Replicas < 1 {
			return fmt.Errorf("topology %s: service %s has %d replicas, need >= 1", s.Name, name, svc.Replicas)
		}
		for i, x := range svc.Demand {
			if !(x >= 0) { // negative or NaN
				return fmt.Errorf("topology %s: service %s demand[%d] = %v, must be >= 0", s.Name, name, i, x)
			}
		}
		for i, x := range svc.Limits {
			if !(x >= 0) {
				return fmt.Errorf("topology %s: service %s limits[%d] = %v, must be >= 0", s.Name, name, i, x)
			}
		}
	}
	// One DFS state map serves every endpoint: a call another endpoint's
	// DFS finished checking is as checked as one of this endpoint's, and a
	// call still on the stack is only ever on this endpoint's. Every service
	// needs a call, so a valid spec has at least as many calls as services.
	state := make(map[*Call]int, len(s.Services))
	reached := make(map[string]bool, len(s.Services))
	epNames := map[string]bool{}
	for _, ep := range s.Endpoints {
		if epNames[ep.Name] {
			return fmt.Errorf("topology %s: duplicate endpoint %s", s.Name, ep.Name)
		}
		epNames[ep.Name] = true
		if !(ep.Weight > 0) { // non-positive or NaN
			return fmt.Errorf("topology %s: endpoint %s has non-positive weight", s.Name, ep.Name)
		}
		if ep.Root == nil {
			return fmt.Errorf("topology %s: endpoint %s has no workflow", s.Name, ep.Name)
		}
		if err := s.checkCall(ep.Root, state, reached, ep.Name); err != nil {
			return err
		}
	}
	for _, name := range names {
		if !reached[name] {
			return fmt.Errorf("topology %s: service %s unreachable from endpoints", s.Name, name)
		}
	}
	return nil
}

// checkCall is a memoized DFS over the workflow graph: it rejects cycles (a
// call that is its own ancestor — what used to overflow Walk's stack),
// unknown services, and negative compute times. States: 0 unvisited, 1 on
// the current DFS stack, 2 fully checked — so shared subtrees (diamonds)
// are validated once and are not misreported as cycles.
func (s *Spec) checkCall(c *Call, state map[*Call]int, reached map[string]bool, ep string) error {
	if c == nil {
		return nil
	}
	switch state[c] {
	case 1:
		return fmt.Errorf("topology %s: endpoint %s workflow has a cycle through service %s", s.Name, ep, c.Service)
	case 2:
		return nil
	}
	state[c] = 1
	if _, ok := s.Services[c.Service]; !ok {
		return fmt.Errorf("topology %s: endpoint %s references unknown service %s", s.Name, ep, c.Service)
	}
	if c.Compute < 0 {
		return fmt.Errorf("topology %s: endpoint %s call to %s has negative compute %v", s.Name, ep, c.Service, c.Compute)
	}
	reached[c.Service] = true
	for _, ch := range c.Children {
		if err := s.checkCall(ch.Call, state, reached, ep); err != nil {
			return err
		}
	}
	state[c] = 2
	return nil
}

// serviceNames returns service names in sorted order, so validation errors
// and any map-driven iteration are deterministic.
func (s *Spec) serviceNames() []string {
	names := make([]string, 0, len(s.Services))
	for name := range s.Services {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Edges returns the distinct directed caller→callee service pairs across
// every endpoint workflow, sorted by (from, to). This is the dependency
// structure that cascading-failure and partition scenarios propagate
// along. Assumes an acyclic spec (see Validate).
func (s *Spec) Edges() [][2]string {
	seen := make(map[[2]string]bool)
	var out [][2]string
	var walk func(c *Call)
	walk = func(c *Call) {
		for _, ch := range c.Children {
			if ch.Call == nil {
				continue
			}
			e := [2]string{c.Service, ch.Call.Service}
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
			walk(ch.Call)
		}
	}
	for _, ep := range s.Endpoints {
		if ep.Root != nil {
			walk(ep.Root)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// NumServices returns the number of distinct microservices.
func (s *Spec) NumServices() int { return len(s.Services) }

// TotalWeight sums endpoint weights.
func (s *Spec) TotalWeight() float64 {
	var w float64
	for _, ep := range s.Endpoints {
		w += ep.Weight
	}
	return w
}
