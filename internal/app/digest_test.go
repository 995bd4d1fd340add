package app

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"testing"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/trace"
)

// The digests in testdata/request_digests.txt were recorded on the closure
// request path (the commit before the pooled-frame rewrite). The frame path
// must reproduce every one: same engine step count, same outcomes, same
// latencies, and the same spans in the same emission order.
var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/request_digests.txt")

const digestFile = "testdata/request_digests.txt"

var (
	digestSpecs    = []string{"social", "gen100"}
	digestVariants = []string{"plain", "retry", "edgefault", "scalezero"}
	digestSeeds    = []int64{1, 2, 3}
)

func digestSpec(t *testing.T, name string, seed int64) *topology.Spec {
	t.Helper()
	if name == "social" {
		return topology.SocialNetwork()
	}
	spec, err := topology.Generate(topology.Params{Services: 100, Endpoints: 4, MaxFanout: 3, Depth: 5}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// requestDigest runs an overloaded open-loop burst against spec and folds
// everything observable about the request path into one FNV-64a value.
func requestDigest(t *testing.T, specName, variant string, seed int64) (digest uint64, summary string) {
	t.Helper()
	spec := digestSpec(t, specName, seed)
	eng := sim.NewEngine(seed)
	cfg := cluster.DefaultConfig() // service-time noise on: RNG draw order is pinned too
	cfg.QueueCap = 8               // small enough that the burst sheds at queues
	cl := cluster.New(eng, cfg)
	for i := 0; i < 1+len(spec.Services)/8; i++ {
		cl.AddNode(cluster.XeonProfile)
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	spans := 0
	var decoded []trace.Span
	sink := trace.SinkFunc(func(tr *trace.Trace) {
		put(uint64(tr.ID))
		put(uint64(tr.Start))
		put(uint64(tr.End))
		put(bit(tr.Dropped))
		decoded = tr.AppendSpans(decoded[:0])
		put(uint64(len(decoded)))
		spans += len(decoded)
		// The digests were recorded while every span repeated its trace's ID
		// and carried its service and instance as strings; hash the same bytes.
		for _, s := range decoded {
			put(uint64(tr.ID))
			put(uint64(s.ID))
			put(uint64(s.Parent))
			h.Write([]byte(tr.Names.ServiceName(uint32(s.Service))))
			h.Write([]byte(tr.Names.InstanceName(s.Instance)))
			put(uint64(s.Start))
			put(uint64(s.End()))
			put(uint64(s.Queued))
			put(bit(s.Background))
		}
	})
	a, err := Deploy(eng, cl, spec, trace.NewCoordinator(eng, sink, cl))
	if err != nil {
		t.Fatal(err)
	}
	a.SLO = 30 * sim.Millisecond
	a.SetResultHook(func(r Result) {
		put(uint64(r.Trace))
		h.Write([]byte(r.Type))
		put(uint64(r.Latency))
		put(bit(r.Dropped))
	})

	const (
		requests = 400
		gap      = sim.Millisecond
	)
	root := spec.Endpoints[0].Root
	switch variant {
	case "plain":
	case "retry":
		a.SetRetryPolicy(&RetryPolicy{MaxRetries: 2, Backoff: 3 * sim.Millisecond})
	case "edgefault":
		faults := map[Edge]EdgeFault{{From: "client", To: root.Service}: {Delay: sim.Millisecond}}
		for _, ch := range root.Children {
			faults[Edge{From: root.Service, To: ch.Call.Service}] = EdgeFault{Delay: 2 * sim.Millisecond, Drop: 0.2}
		}
		a.SetEdgeFaults(faults, sim.Stream(seed, "digest-fault"))
	case "scalezero":
		// Mid-burst, every replica of the first endpoint's first callee goes
		// away (queued work dropped, in-flight work completes detached) and
		// one warm replica returns later.
		rs := cl.ReplicaSet(root.Children[0].Call.Service)
		limits := rs.Containers()[0].Limits()
		eng.Schedule(requests/3*gap, func() {
			for _, c := range append([]*cluster.Container(nil), rs.Containers()...) {
				rs.RemoveReplica(c)
			}
		})
		eng.Schedule(2*requests/3*gap, func() {
			if _, err := rs.AddReplica(limits, false, true); err != nil {
				t.Error(err)
			}
		})
	default:
		t.Fatalf("unknown variant %q", variant)
	}

	mix := sim.Stream(seed, "digest-mix")
	for i := 0; i < requests; i++ {
		eng.Schedule(sim.Time(i)*gap, func() {
			if _, err := a.SubmitMix(mix, nil); err != nil {
				t.Error(err)
			}
		})
	}
	eng.RunUntil(30 * sim.Second)
	if n := a.Coord.PendingCount(); n != 0 {
		t.Fatalf("%d traces never sealed", n)
	}
	put(eng.Steps())
	put(a.Completed)
	put(a.Dropped)
	put(a.Violations)
	return h.Sum64(), fmt.Sprintf("steps=%d completed=%d dropped=%d violations=%d spans=%d",
		eng.Steps(), a.Completed, a.Dropped, a.Violations, spans)
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRequestPathDigests(t *testing.T) {
	got := map[string]string{}
	notes := map[string]string{}
	for _, spec := range digestSpecs {
		for _, variant := range digestVariants {
			for _, seed := range digestSeeds {
				key := fmt.Sprintf("%s/%s/%d", spec, variant, seed)
				d, summary := requestDigest(t, spec, variant, seed)
				got[key] = fmt.Sprintf("%016x", d)
				notes[key] = summary
			}
		}
	}
	if *updateDigests {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString("# FNV-64a digests of the request path (see digest_test.go); recorded on the\n")
		b.WriteString("# closure path, before the pooled-frame rewrite. Do not repin to make a\n")
		b.WriteString("# request-path change pass: a mismatch means simulated behaviour moved.\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s # %s\n", k, got[k], notes[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	if len(want) != len(got) {
		t.Fatalf("%s pins %d cases, test runs %d", digestFile, len(want), len(got))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s: digest %s, pinned %s (%s)", k, g, want[k], notes[k])
		}
	}
}
