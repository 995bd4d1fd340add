package harness

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// The digests in testdata/sharded_digests.txt were first recorded through the
// closure-per-call executor the sharded path ran on before calls became
// mailed frames (internal/app/sharded.go at the commit before that rewrite);
// the frame path and then the per-shard mailboxes reproduced every one. They
// were re-recorded once, when per-instance noise moved from math/rand's
// source to an 8-byte SplitMix64 stream — a deliberate change of sample path,
// made only after every case agreed at every (shards, workers) pair below.
// The request path must reproduce every one at every pair: same request
// outcomes in the same order, same engine step count.
var updateShardedDigests = flag.Bool("update-sharded-digests", false, "rewrite testdata/sharded_digests.txt")

const shardedDigestFile = "testdata/sharded_digests.txt"

// shardedDigestCases are generated topologies under open-loop load: the
// first two are overloaded until queues shed, s140-bg weights the child-mode
// draw toward Background (results routinely leave before their subtree has
// drained), and s250-kill loses every replica of a first-hop callee mid-run
// (calls shed at routing, on the callee's shard).
type shardedDigestCase struct {
	name string
	p    topology.Params
	seed int64
	rps  float64
	kill bool
}

var shardedDigestCases = []shardedDigestCase{
	{"s60", topology.Params{Services: 60, Endpoints: 4, MaxFanout: 3, Depth: 4}, 1, 3000, false},
	{"s100", topology.Params{Services: 100, Endpoints: 5, MaxFanout: 3, Depth: 5}, 2, 2500, false},
	{"s140-bg", topology.Params{Services: 140, Endpoints: 6, MaxFanout: 4, Depth: 5, ModeMix: [3]float64{2, 2, 5}}, 3, 500, false},
	{"s200", topology.Params{Services: 200, Endpoints: 6, MaxFanout: 2, Depth: 7}, 4, 600, false},
	{"s250-kill", topology.Params{Services: 250, Endpoints: 8, MaxFanout: 4, Depth: 6}, 5, 400, true},
	{"s300", topology.Params{Services: 300, Endpoints: 10, MaxFanout: 3, Depth: 8}, 6, 300, false},
}

// shardedDigest runs one case and folds every request outcome, in
// completion order, plus the final counters into one FNV-64a value.
func shardedDigest(t *testing.T, c shardedDigestCase, shards, workers int) (string, string) {
	t.Helper()
	spec, err := topology.Generate(c.p, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(ShardedOptions{Seed: c.seed, Spec: spec, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	b.App.SetResultHook(func(r app.Result) {
		put(uint64(r.Trace))
		h.Write([]byte(r.Type))
		put(uint64(r.Latency))
		if r.Dropped {
			put(1)
		} else {
			put(0)
		}
	})
	if c.kill {
		victim := spec.Endpoints[0].Root.Children[0].Call.Service
		sh := b.ShardOf(victim)
		b.Eng.Shard(sh).Schedule(sim.Second/2, func() {
			rs := b.Clusters[sh].ReplicaSet(victim)
			for _, ct := range append([]*cluster.Container(nil), rs.Containers()...) {
				rs.RemoveReplica(ct)
			}
		})
	}
	b.Eng.SetWorkers(workers)
	b.AttachWorkload(workload.Constant{RPS: c.rps})
	b.Eng.RunFor(sim.Second)
	b.Gen.Stop()
	b.Eng.RunFor(20 * sim.Second) // drain: every admitted request reports
	if done := b.App.Completed + b.App.Dropped; done != b.Gen.Submitted {
		t.Fatalf("%d of %d requests reported", done, b.Gen.Submitted)
	}
	put(b.Eng.Steps())
	put(b.App.Completed)
	put(b.App.Dropped)
	put(b.App.Violations)
	return fmt.Sprintf("%016x", h.Sum64()), fmt.Sprintf("steps=%d completed=%d dropped=%d violations=%d",
		b.Eng.Steps(), b.App.Completed, b.App.Dropped, b.App.Violations)
}

func TestShardedRequestDigests(t *testing.T) {
	if *updateShardedDigests {
		var out strings.Builder
		out.WriteString("# FNV-64a digests of the sharded request path (see sharded_digest_test.go);\n")
		out.WriteString("# re-recorded when per-instance noise became an 8-byte SplitMix64 stream (the\n")
		out.WriteString("# one deliberate sample-path change since the closure-per-call executor they\n")
		out.WriteString("# were first recorded through; mailed frames and per-shard mailboxes both\n")
		out.WriteString("# reproduced the originals). Do not repin to make a request-path change pass:\n")
		out.WriteString("# a mismatch means simulated behaviour moved.\n")
		for _, c := range shardedDigestCases {
			d, summary := shardedDigest(t, c, 1, 1)
			fmt.Fprintf(&out, "%s %s # %s\n", c.name, d, summary)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardedDigestFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(shardedDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] != "#" {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(shardedDigestCases) {
		t.Fatalf("%s pins %d cases, test runs %d", shardedDigestFile, len(want), len(shardedDigestCases))
	}
	for _, c := range shardedDigestCases {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, workers := range []int{1, shards}[:min(shards, 2)] {
				got, summary := shardedDigest(t, c, shards, workers)
				if got != want[c.name] {
					t.Errorf("%s shards=%d workers=%d: digest %s, pinned %s (%s)", c.name, shards, workers, got, want[c.name], summary)
				}
			}
		}
	}
}
