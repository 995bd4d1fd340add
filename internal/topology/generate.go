package topology

import (
	"fmt"
	"math"
	"math/rand"

	"firm/internal/sim"
)

// This file is the procedural topology generator (ROADMAP item 1): seeded,
// parameterized service graphs so campaigns can sweep from 10 services to
// web scale instead of being limited to the four hand-coded benchmarks.
// Generation is deterministic in (Params, seed) — the pair is a campaign
// job key, and a generated topology travels over internal/dist as that
// reference, rebuilt bit-identically on whichever machine runs the job.

// Params are the generator knobs. The zero values of ClassMix and ModeMix
// select the default mixes; every other field must be set explicitly.
type Params struct {
	// Services is the total service count including the front-end gateway.
	// Must be >= 2 and >= Depth (so every layer is populated).
	Services int
	// Endpoints is the number of user-facing request types. Must be >= 1.
	Endpoints int
	// MaxFanout bounds how many children a workflow vertex draws during
	// tree generation (the coverage pass may exceed it when attaching
	// otherwise-unreached services). Must be >= 1.
	MaxFanout int
	// Depth is the number of service layers including the gateway layer 0.
	// Calls only ever target strictly deeper layers, so generated
	// workflows are acyclic by construction. Must be >= 2.
	Depth int
	// ClassMix weights the service-class draw, indexed by ServiceClass
	// {Web, Logic, Cache, DB, Media}. The zero value means DefaultClassMix.
	ClassMix [5]float64
	// ModeMix weights the child-mode draw, indexed by Mode
	// {Seq, Par, Background}. The zero value means DefaultModeMix.
	ModeMix [3]float64
}

// Default mixes, loosely matched to the DeathStarBench benchmarks: logic
// tiers dominate, sequential calls outnumber parallel fan-outs, background
// work is rare.
var (
	DefaultClassMix = [5]float64{2, 4, 2, 2, 1}
	DefaultModeMix  = [3]float64{5, 3, 1}
)

// Key returns a compact stable identifier for the parameter set, suitable
// as a runner job-key component ("/"-free).
func (p Params) Key() string {
	k := fmt.Sprintf("s%d-e%d-f%d-d%d", p.Services, p.Endpoints, p.MaxFanout, p.Depth)
	if p.ClassMix != ([5]float64{}) {
		k += fmt.Sprintf("-c%g,%g,%g,%g,%g", p.ClassMix[0], p.ClassMix[1], p.ClassMix[2], p.ClassMix[3], p.ClassMix[4])
	}
	if p.ModeMix != ([3]float64{}) {
		k += fmt.Sprintf("-m%g,%g,%g", p.ModeMix[0], p.ModeMix[1], p.ModeMix[2])
	}
	return k
}

// normalized applies mix defaults and validates every knob.
func (p Params) normalized() (Params, error) {
	if p.Services < 2 {
		return p, fmt.Errorf("topology: Generate needs Services >= 2, got %d", p.Services)
	}
	if p.Endpoints < 1 {
		return p, fmt.Errorf("topology: Generate needs Endpoints >= 1, got %d", p.Endpoints)
	}
	if p.MaxFanout < 1 {
		return p, fmt.Errorf("topology: Generate needs MaxFanout >= 1, got %d", p.MaxFanout)
	}
	if p.Depth < 2 {
		return p, fmt.Errorf("topology: Generate needs Depth >= 2, got %d", p.Depth)
	}
	if p.Services < p.Depth {
		return p, fmt.Errorf("topology: Generate needs Services >= Depth, got %d < %d", p.Services, p.Depth)
	}
	if p.ClassMix == ([5]float64{}) {
		p.ClassMix = DefaultClassMix
	}
	if p.ModeMix == ([3]float64{}) {
		p.ModeMix = DefaultModeMix
	}
	if err := checkMix(p.ClassMix[:], "ClassMix"); err != nil {
		return p, err
	}
	if err := checkMix(p.ModeMix[:], "ModeMix"); err != nil {
		return p, err
	}
	return p, nil
}

// checkMix rejects a mix drawIndex cannot draw from: a weight that is
// negative, NaN or +Inf, or a sum that is zero or overflows (with an
// infinite sum every draw would fall through to the last index).
func checkMix(mix []float64, name string) error {
	var sum float64
	for i, w := range mix {
		if !(w >= 0) || math.IsInf(w, 1) { // negative, NaN or +Inf
			return fmt.Errorf("topology: Generate %s[%d] = %v, must be finite and >= 0", name, i, w)
		}
		sum += w
	}
	if !(sum > 0) || math.IsInf(sum, 1) {
		return fmt.Errorf("topology: Generate %s sums to %v, must be positive and finite", name, sum)
	}
	return nil
}

// drawIndex picks a weighted index from mix. The caller guarantees the mix
// has a positive sum (checkMix).
func drawIndex(rng *rand.Rand, mix []float64) int {
	var sum float64
	for _, w := range mix {
		sum += w
	}
	x := rng.Float64() * sum
	for i, w := range mix {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(mix) - 1 // float residue
}

// serviceTime draws a per-service base compute time from the class's range
// (matched to the hand-built benchmarks' per-call times).
func serviceTime(rng *rand.Rand, class ServiceClass) sim.Time {
	u := rng.Float64()
	switch class {
	case Web:
		return ms(0.2 + 0.4*u)
	case Logic:
		return ms(0.5 + 2.5*u)
	case Cache:
		return ms(0.1 + 0.2*u)
	case DB:
		return ms(1.0 + 4.0*u)
	case Media:
		return ms(2.0 + 6.0*u)
	}
	return ms(0.5 + 1.0*u)
}

// genService is a service plus its generation-time metadata.
type genService struct {
	name    string
	layer   int
	compute sim.Time
}

// Generate builds a random-but-reproducible application Spec: a layered
// service DAG (gateway at layer 0, calls always target strictly deeper
// layers, so the result is acyclic by construction), per-class demand and
// compute-time draws, weighted endpoint workflow trees, and a coverage
// pass that attaches any service the endpoint trees missed. The result is
// deterministic in (Params, seed) and always passes Validate.
func Generate(p Params, seed int64) (*Spec, error) {
	p, err := p.normalized()
	if err != nil {
		return nil, err
	}
	rng := sim.Stream(seed, "topology-generate")
	spec := &Spec{
		Name:         fmt.Sprintf("gen-%s-%d", p.Key(), seed),
		Services:     make(map[string]*Service, p.Services),
		SLO:          500 * sim.Millisecond,
		BaseRPCDelay: 300 * sim.Microsecond,
	}

	// Services, in a fixed creation order (never iterate spec.Services: map
	// order would break (Params, seed) determinism). The gateway is layer 0;
	// the next Depth-1 services populate layers 1..Depth-1 so no layer is
	// empty; the rest draw a random layer.
	addSvc := func(name string, class ServiceClass, layer int) genService {
		spec.Services[name] = &Service{
			Name:     name,
			Class:    class,
			Replicas: 1,
			Demand:   class.demand(),
			Limits:   class.limits(),
		}
		return genService{name: name, layer: layer, compute: serviceTime(rng, class)}
	}
	services := make([]genService, 0, p.Services)
	byLayer := make([][]genService, p.Depth)
	services = append(services, addSvc("gateway", Web, 0))
	byLayer[0] = append(byLayer[0], services[0])
	for i := 1; i < p.Services; i++ {
		layer := i
		if i >= p.Depth {
			layer = 1 + rng.Intn(p.Depth-1)
		}
		class := ServiceClass(drawIndex(rng, p.ClassMix[:]))
		s := addSvc(fmt.Sprintf("svc-%04d", i), class, layer)
		services = append(services, s)
		byLayer[layer] = append(byLayer[layer], s)
	}
	// deeper[L] lists every service strictly below layer L — the candidate
	// pool for a vertex at layer L drawing children.
	deeper := make([][]genService, p.Depth)
	for l := p.Depth - 2; l >= 0; l-- {
		deeper[l] = append(append([]genService{}, byLayer[l+1]...), deeper[l+1]...)
	}

	// Endpoint workflow trees. Each endpoint gets a vertex budget so huge
	// fanout×depth combinations can't explode the tree; the coverage pass
	// below guarantees reachability regardless of where the budget cuts.
	budget0 := 2 * p.Services / p.Endpoints
	if budget0 < 16 {
		budget0 = 16
	}
	// vertices[L] records every call vertex created at layer L, the
	// attachment points for the coverage pass.
	vertices := make([][]*Call, p.Depth)
	var build func(s genService, budget *int) *Call
	build = func(s genService, budget *int) *Call {
		c := &Call{Service: s.name, Compute: s.compute}
		vertices[s.layer] = append(vertices[s.layer], c)
		pool := deeper[s.layer]
		if len(pool) == 0 {
			return c
		}
		fan := 1 + rng.Intn(p.MaxFanout)
		for i := 0; i < fan && *budget > 0; i++ {
			pick := pool[rng.Intn(len(pool))]
			*budget--
			mode := Mode(drawIndex(rng, p.ModeMix[:]))
			c.Children = append(c.Children, Child{Mode: mode, Call: build(pick, budget)})
		}
		return c
	}
	gateway := services[0]
	for e := 0; e < p.Endpoints; e++ {
		budget := budget0
		root := build(gateway, &budget)
		weight := 0.5 + 1.5*rng.Float64()
		spec.Endpoints = append(spec.Endpoints, Endpoint{
			Name:   fmt.Sprintf("ep-%02d", e),
			Weight: weight,
			Root:   root,
		})
	}

	// Coverage pass: attach every service the endpoint trees missed under
	// an existing shallower vertex (one always exists: the gateway roots
	// every tree). Attachments are leaf calls recorded as future attachment
	// points themselves, so late unreached services can chain under earlier
	// ones. This may push a vertex past MaxFanout — the knob bounds the
	// random draw, not the repair.
	reached := map[string]bool{}
	for _, ep := range spec.Endpoints {
		Walk(ep.Root, func(c *Call) { reached[c.Service] = true })
	}
	for _, s := range services {
		if reached[s.name] {
			continue
		}
		// Draw over the shallower layers' vertices as if concatenated, then
		// index into the owning layer: concatenating them per unreached
		// service is quadratic at 10,000 services.
		total := 0
		for l := 0; l < s.layer; l++ {
			total += len(vertices[l])
		}
		k := rng.Intn(total)
		l := 0
		for k >= len(vertices[l]) {
			k -= len(vertices[l])
			l++
		}
		parent := vertices[l][k]
		mode := Mode(drawIndex(rng, p.ModeMix[:]))
		leaf := &Call{Service: s.name, Compute: s.compute}
		vertices[s.layer] = append(vertices[s.layer], leaf)
		parent.Children = append(parent.Children, Child{Mode: mode, Call: leaf})
		reached[s.name] = true
	}

	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generated spec failed validation: %w", err)
	}
	return spec, nil
}

// NumCalls counts workflow vertices across all endpoints (shared vertices
// counted once per endpoint tree they appear in).
func (s *Spec) NumCalls() int {
	n := 0
	for _, ep := range s.Endpoints {
		Walk(ep.Root, func(*Call) { n++ })
	}
	return n
}
