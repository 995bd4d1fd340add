package topology

import (
	"slices"
	"testing"

	"firm/internal/sim"
)

// Unique-microservice counts from §4.1: "These benchmarks contains 36, 38,
// 15, and 41 unique microservices, respectively".
func TestServiceCountsMatchPaper(t *testing.T) {
	want := map[string]int{
		"social-network":    36,
		"media-service":     38,
		"hotel-reservation": 15,
		"train-ticket":      41,
	}
	for _, spec := range All() {
		if got := spec.NumServices(); got != want[spec.Name] {
			t.Errorf("%s: %d services, want %d", spec.Name, got, want[spec.Name])
		}
	}
}

func TestAllSpecsValidate(t *testing.T) {
	for _, spec := range All() {
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestAllWorkflowPatternsCovered(t *testing.T) {
	// §4.1: the benchmarks "cover all workflow patterns" — each app must
	// exercise sequential and parallel; background must appear in at least
	// one endpoint of each app that has a write path.
	for _, spec := range All() {
		modes := map[Mode]bool{}
		for _, ep := range spec.Endpoints {
			Walk(ep.Root, func(c *Call) {
				for _, ch := range c.Children {
					modes[ch.Mode] = true
				}
			})
		}
		if !modes[Seq] || !modes[Par] {
			t.Errorf("%s: missing seq/par patterns: %v", spec.Name, modes)
		}
		if !modes[Background] {
			t.Errorf("%s: no background workflow", spec.Name)
		}
	}
}

func TestEndpointWeightsSumToOne(t *testing.T) {
	for _, spec := range All() {
		if w := spec.TotalWeight(); w < 0.999 || w > 1.001 {
			t.Errorf("%s: endpoint weights sum to %v", spec.Name, w)
		}
	}
}

func TestByNameAndRegistry(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if len(Names()) != 4 {
		t.Fatalf("want 4 benchmarks, got %d", len(Names()))
	}
}

func TestComposePostMatchesFig2(t *testing.T) {
	spec := SocialNetwork()
	i := slices.IndexFunc(spec.Endpoints, func(ep Endpoint) bool { return ep.Name == "compose-post" })
	if i < 0 {
		t.Fatal("compose-post endpoint missing")
	}
	ep := spec.Endpoints[i]
	if ep.Root.Service != "nginx" {
		t.Fatalf("root = %s, want nginx", ep.Root.Service)
	}
	// Fig. 2(b): video (V), user-tag (U), text (T) are parallel children;
	// unique-id (I) is sequential under user-tag; write-timeline (W) is
	// background under compose-post.
	var parallel []string
	for _, ch := range ep.Root.Children {
		if ch.Mode == Par {
			parallel = append(parallel, ch.Call.Service)
		}
	}
	wantPar := map[string]bool{"video": true, "user-tag": true, "text": true}
	if len(parallel) != 3 {
		t.Fatalf("parallel children = %v", parallel)
	}
	for _, s := range parallel {
		if !wantPar[s] {
			t.Fatalf("unexpected parallel child %s", s)
		}
	}
	foundBg := false
	Walk(ep.Root, func(c *Call) {
		if c.Service == "compose-post" {
			for _, ch := range c.Children {
				if ch.Mode == Background && ch.Call.Service == "write-timeline" {
					foundBg = true
				}
			}
		}
		if c.Service == "user-tag" {
			if len(c.Children) != 1 || c.Children[0].Mode != Seq ||
				c.Children[0].Call.Service != "unique-id" {
				t.Errorf("user-tag children wrong: unique-id must be sequential")
			}
		}
	})
	if !foundBg {
		t.Fatal("write-timeline background workflow missing")
	}
}

func TestServiceClassesAssignDemands(t *testing.T) {
	spec := SocialNetwork()
	cacheSvc := spec.Services["post-storage-memcached"]
	dbSvc := spec.Services["post-storage-mongodb"]
	if cacheSvc == nil || dbSvc == nil {
		t.Fatal("storage pair missing")
	}
	if cacheSvc.Class != Cache || dbSvc.Class != DB {
		t.Fatal("storage pair classes wrong")
	}
	if cacheSvc.Demand[1] <= spec.Services["nginx"].Demand[1] {
		t.Fatal("cache must be more membw-hungry than nginx")
	}
	if dbSvc.Demand[3] <= cacheSvc.Demand[3] {
		t.Fatal("db must be more io-hungry than cache")
	}
}

func TestSpecDefaults(t *testing.T) {
	for _, spec := range All() {
		if spec.SLO <= 0 {
			t.Errorf("%s: no SLO", spec.Name)
		}
		if spec.BaseRPCDelay <= 0 {
			t.Errorf("%s: no RPC delay", spec.Name)
		}
		for name, svc := range spec.Services {
			if svc.Replicas < 1 {
				t.Errorf("%s/%s: replicas %d", spec.Name, name, svc.Replicas)
			}
			if svc.Limits[0] <= 0 || svc.Demand[0] <= 0 {
				t.Errorf("%s/%s: zero cpu limit/demand", spec.Name, name)
			}
		}
	}
}

func TestWalkOrderAndNilSafety(t *testing.T) {
	Walk(nil, func(*Call) { t.Fatal("visited nil call") })
	spec := HotelReservation()
	var order []string
	Walk(spec.Endpoints[0].Root, func(c *Call) { order = append(order, c.Service) })
	if len(order) == 0 || order[0] != "frontend" {
		t.Fatalf("walk order = %v", order)
	}
}

func TestModeString(t *testing.T) {
	if Seq.String() != "seq" || Par.String() != "par" || Background.String() != "background" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode name")
	}
}

func TestComputeTimesPositive(t *testing.T) {
	for _, spec := range All() {
		for _, ep := range spec.Endpoints {
			Walk(ep.Root, func(c *Call) {
				if c.Compute <= 0 {
					t.Errorf("%s/%s/%s: non-positive compute", spec.Name, ep.Name, c.Service)
				}
				if c.Compute > 100*sim.Millisecond {
					t.Errorf("%s/%s/%s: implausible compute %v", spec.Name, ep.Name, c.Service, c.Compute)
				}
			})
		}
	}
}
