package topology

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"firm/internal/sim"
)

func genParams() Params {
	return Params{Services: 40, Endpoints: 4, MaxFanout: 3, Depth: 5}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(genParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(genParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (Params, seed) must generate deep-equal specs")
	}
}

func TestGenerateNeighboringSeedsDiffer(t *testing.T) {
	a, err := Generate(genParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(genParams(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("neighboring seeds must generate different specs")
	}
}

func TestGenerateStructure(t *testing.T) {
	p := genParams()
	s, err := Generate(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NumServices(); got != p.Services {
		t.Fatalf("generated %d services, want %d", got, p.Services)
	}
	if got := len(s.Endpoints); got != p.Endpoints {
		t.Fatalf("generated %d endpoints, want %d", got, p.Endpoints)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("generated spec must validate: %v", err)
	}
	if _, ok := s.Services["gateway"]; !ok {
		t.Fatal("generated spec must have a gateway")
	}
	for _, ep := range s.Endpoints {
		if ep.Root.Service != "gateway" {
			t.Fatalf("endpoint %s roots at %s, want gateway", ep.Name, ep.Root.Service)
		}
	}
	if s.NumCalls() < p.Services {
		t.Fatalf("%d workflow vertices cannot cover %d services", s.NumCalls(), p.Services)
	}
}

func TestGenerateScalesTo1000Services(t *testing.T) {
	p := Params{Services: 1000, Endpoints: 8, MaxFanout: 3, Depth: 6}
	a, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumServices() != 1000 {
		t.Fatalf("generated %d services, want 1000", a.NumServices())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("1000-service spec must validate: %v", err)
	}
	b, err := Generate(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("1000-service generation must be deterministic")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		{"too few services", Params{Services: 1, Endpoints: 1, MaxFanout: 1, Depth: 2}},
		{"no endpoints", Params{Services: 10, Endpoints: 0, MaxFanout: 1, Depth: 2}},
		{"zero fanout", Params{Services: 10, Endpoints: 1, MaxFanout: 0, Depth: 2}},
		{"shallow depth", Params{Services: 10, Endpoints: 1, MaxFanout: 1, Depth: 1}},
		{"depth exceeds services", Params{Services: 3, Endpoints: 1, MaxFanout: 1, Depth: 4}},
		{"negative class weight", Params{Services: 10, Endpoints: 1, MaxFanout: 1, Depth: 2, ClassMix: [5]float64{-1, 1, 1, 1, 1}}},
		{"negative mode weight", Params{Services: 10, Endpoints: 1, MaxFanout: 1, Depth: 2, ModeMix: [3]float64{1, -1, 1}}},
		// With an infinite weight every draw falls through to the last
		// class: 29 of these 30 services would be Media, whose weight is 0.
		{"infinite class weight", Params{Services: 30, Endpoints: 2, MaxFanout: 3, Depth: 3, ClassMix: [5]float64{math.Inf(1), 0, 0, 0, 0}}},
		{"NaN mode weight", Params{Services: 10, Endpoints: 1, MaxFanout: 1, Depth: 2, ModeMix: [3]float64{1, math.NaN(), 1}}},
		{"overflowing class sum", Params{Services: 10, Endpoints: 1, MaxFanout: 1, Depth: 2, ClassMix: [5]float64{math.MaxFloat64, math.MaxFloat64, 0, 0, 0}}},
	}
	for _, tc := range cases {
		if _, err := Generate(tc.p, 1); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

func TestParamsKeyStable(t *testing.T) {
	p := genParams()
	if p.Key() != p.Key() {
		t.Fatal("Key must be stable")
	}
	q := p
	q.Services++
	if p.Key() == q.Key() {
		t.Fatal("different params must key differently")
	}
	m := p
	m.ClassMix = [5]float64{1, 0, 0, 0, 0}
	if p.Key() == m.Key() {
		t.Fatal("class mix must be part of the key")
	}
}

// TestValidateRejections covers the hardened checks: cycles (the input
// that used to overflow Walk's stack), bad replica counts, negative
// demand/limit vectors, duplicate endpoints, nil roots, and negative
// compute.
func TestValidateRejections(t *testing.T) {
	base := func() *Spec {
		s, err := Generate(Params{Services: 5, Endpoints: 2, MaxFanout: 2, Depth: 3}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	t.Run("cycle", func(t *testing.T) {
		s := base()
		// Splice a back edge: make some descendant call the root again.
		root := s.Endpoints[0].Root
		cur := root
		for len(cur.Children) > 0 {
			cur = cur.Children[0].Call
		}
		cur.Children = append(cur.Children, Child{Mode: Seq, Call: root})
		if err := s.Validate(); err == nil {
			t.Fatal("cyclic workflow must be rejected (used to overflow the stack)")
		}
	})

	t.Run("self loop", func(t *testing.T) {
		s := base()
		root := s.Endpoints[0].Root
		root.Children = append(root.Children, Child{Mode: Seq, Call: root})
		if err := s.Validate(); err == nil {
			t.Fatal("self-loop must be rejected")
		}
	})

	t.Run("diamond is not a cycle", func(t *testing.T) {
		s := base()
		// Two parents sharing one child is legal sharing, not a cycle.
		root := s.Endpoints[0].Root
		shared := &Call{Service: root.Service, Compute: root.Compute}
		root.Children = append(root.Children,
			Child{Mode: Par, Call: shared}, Child{Mode: Par, Call: shared})
		if err := s.Validate(); err != nil {
			t.Fatalf("shared subtree must validate: %v", err)
		}
	})

	t.Run("zero replicas", func(t *testing.T) {
		s := base()
		s.Services["gateway"].Replicas = 0
		if err := s.Validate(); err == nil {
			t.Fatal("Replicas < 1 must be rejected")
		}
	})

	t.Run("negative demand", func(t *testing.T) {
		s := base()
		s.Services["gateway"].Demand[0] = -1
		if err := s.Validate(); err == nil {
			t.Fatal("negative demand must be rejected")
		}
	})

	t.Run("negative limits", func(t *testing.T) {
		s := base()
		s.Services["gateway"].Limits[2] = -1
		if err := s.Validate(); err == nil {
			t.Fatal("negative limits must be rejected")
		}
	})

	t.Run("duplicate endpoint", func(t *testing.T) {
		s := base()
		s.Endpoints = append(s.Endpoints, s.Endpoints[0])
		if err := s.Validate(); err == nil {
			t.Fatal("duplicate endpoint name must be rejected")
		}
	})

	t.Run("nil root", func(t *testing.T) {
		s := base()
		s.Endpoints[0].Root = nil
		if err := s.Validate(); err == nil {
			t.Fatal("nil workflow root must be rejected")
		}
	})

	t.Run("negative compute", func(t *testing.T) {
		s := base()
		s.Endpoints[0].Root.Compute = -sim.Millisecond
		if err := s.Validate(); err == nil {
			t.Fatal("negative compute must be rejected")
		}
	})

	t.Run("unknown service", func(t *testing.T) {
		s := base()
		s.Endpoints[0].Root.Children = append(s.Endpoints[0].Root.Children,
			Child{Mode: Seq, Call: &Call{Service: "no-such-service"}})
		if err := s.Validate(); err == nil {
			t.Fatal("unknown service must be rejected")
		}
	})

	t.Run("unreachable service", func(t *testing.T) {
		s := base()
		s.Services["orphan"] = &Service{Name: "orphan", Replicas: 1}
		if err := s.Validate(); err == nil {
			t.Fatal("unreachable service must be rejected")
		}
	})
}

// validMix is checkMix's contract restated: finite non-negative weights
// with a positive, finite sum; the zero mix means the default.
func validMix(mix []float64) bool {
	var sum float64
	for _, w := range mix {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return false
		}
		sum += w
	}
	return sum > 0 && !math.IsInf(sum, 0)
}

// TestServiceNames: the generated names are fmt's "svc-%04d", with five
// digits and more from 10,000 up, and each stays intact as the builder they
// are cut from grows.
func TestServiceNames(t *testing.T) {
	var b strings.Builder
	names := make([]string, 100_001)
	for i := 1; i < len(names); i++ {
		names[i] = appendName(&b, i)
	}
	for i := 1; i < len(names); i++ {
		if want := fmt.Sprintf("svc-%04d", i); names[i] != want {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], want)
		}
	}
}

// FuzzGenerate draws bounded Params (at most 300 services and 64
// endpoints, negatives included), arbitrary mixes and seed. Generate must
// fail exactly when the params are invalid; otherwise the spec validates,
// has the asked-for shape, regenerates to identical edges, is deep-equal to
// generateReference's, and its Params.Key has no "/" (a generated-topology
// job key embeds it). The service bound keeps the mutator on many small
// shapes; the benchmark shapes in the seed corpus (1,000 and 10,000
// services) pass through unbounded.
func FuzzGenerate(f *testing.F) {
	f.Add(30, 2, 3, 3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(1))
	f.Add(1000, 6, 3, 6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(42))   // mesh-1k
	f.Add(10000, 12, 2, 8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(42)) // mesh-10k-sharded
	f.Add(40, 4, 3, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(5))      // Depth 1: rejected
	f.Add(40, 4, 3, 2, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(5))      // Depth 2: one pool, layer 1
	f.Add(300, 64, 8, 12, 1.0, 2.0, 0.5, 0.5, 0.1, 5.0, 2.0, 0.2, int64(-7))
	f.Add(30, 2, 3, 3, math.Inf(1), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, int64(1))
	f.Add(10, 1, 1, 2, math.MaxFloat64, math.MaxFloat64, 0.0, 0.0, 0.0, 1.0, math.NaN(), 1.0, int64(3))
	f.Add(2, 1, 1, 2, 0.0, 0.0, 0.0, 0.0, 1e-300, 0.0, 0.0, 1.0, int64(0))
	f.Fuzz(func(t *testing.T, services, endpoints, fanout, depth int,
		c0, c1, c2, c3, c4, m0, m1, m2 float64, seed int64) {
		if services != 1000 && services != 10000 {
			services %= 301
		}
		p := Params{
			Services:  services,
			Endpoints: endpoints % 65,
			MaxFanout: fanout,
			Depth:     depth,
			ClassMix:  [5]float64{c0, c1, c2, c3, c4},
			ModeMix:   [3]float64{m0, m1, m2},
		}
		valid := p.Services >= 2 && p.Endpoints >= 1 && p.MaxFanout >= 1 &&
			p.Depth >= 2 && p.Services >= p.Depth &&
			(p.ClassMix == [5]float64{} || validMix(p.ClassMix[:])) &&
			(p.ModeMix == [3]float64{} || validMix(p.ModeMix[:]))
		if strings.Contains(p.Key(), "/") {
			t.Fatalf("Key %q contains a /", p.Key())
		}
		spec, err := Generate(p, seed)
		if (err == nil) != valid {
			t.Fatalf("%+v: valid=%v but Generate err = %v", p, valid, err)
		}
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("%+v: generated spec invalid: %v", p, err)
		}
		if spec.NumServices() != p.Services || len(spec.Endpoints) != p.Endpoints {
			t.Fatalf("%+v: %d services, %d endpoints", p, spec.NumServices(), len(spec.Endpoints))
		}
		again, err := Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec.Edges(), again.Edges()) {
			t.Fatalf("%+v seed %d: edges differ between two calls", p, seed)
		}
		ref, err := generateReference(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(spec, ref) {
			t.Fatalf("%+v seed %d: spec differs from generateReference's", p, seed)
		}
	})
}

// generateReference is Generate as it stood before its layer pools became
// suffixes of one index slice and its reached set a []bool: per-layer
// genService copies, deeper[l] rebuilt by copying, reached a map filled by
// walking the finished trees. FuzzGenerate holds Generate deep-equal to it
// on every valid (Params, seed), so the cheaper bookkeeping can never pick
// a different service.
func generateReference(p Params, seed int64) (*Spec, error) {
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
