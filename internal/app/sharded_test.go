package app

import (
	"fmt"
	"testing"
	"unsafe"

	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/topology"
)

// shardedBed deploys spec over shards engine shards the way the sharded
// harness does, in small: services in sorted order, eight to a node, the
// node fleet cut into contiguous blocks — a pure function of the spec, so
// every container's neighbours are the same at every shard count.
func shardedBed(t *testing.T, spec *topology.Spec, seed int64, shards, queueCap int) (*sim.ShardedEngine, *App, []*cluster.Cluster, map[string]int) {
	t.Helper()
	se := sim.NewShardedEngine(seed, shards, spec.BaseRPCDelay)
	cfg := cluster.DefaultConfig()
	cfg.PerInstanceNoise = true
	cfg.NoiseSeed = seed
	cfg.QueueCap = queueCap
	clusters := make([]*cluster.Cluster, shards)
	for i := range clusters {
		clusters[i] = cluster.New(se.Shard(i), cfg)
	}
	names := sortedServices(spec)
	numNodes := (len(names) + 7) / 8
	nodes := make([]*cluster.Node, numNodes)
	for n := range nodes {
		nodes[n] = clusters[n*shards/numNodes].AddNode(cluster.XeonProfile)
	}
	assign := map[string]int{}
	for i, name := range names {
		svc := spec.Services[name]
		sh := (i / 8) * shards / numNodes
		assign[name] = sh
		if _, err := clusters[sh].DeployServiceOn(nodes[i/8], name, svc.Replicas, svc.Limits); err != nil {
			t.Fatal(err)
		}
	}
	a, err := DeploySharded(se, spec, assign[spec.Endpoints[0].Root.Service], assign, clusters)
	if err != nil {
		t.Fatal(err)
	}
	return se, a, clusters, assign
}

// shardedStorm is the frame path's worst mix on a sharded deployment: a
// Background-heavy generated topology (results routinely outrun their
// subtree), an overloaded burst against short queues, retries, a delayed
// edge, and a replica set that goes away mid-burst — bursts times over, a
// second apart. It returns every request outcome in completion order and the
// app, drained.
func shardedStorm(t *testing.T, shards, workers, bursts int, poison bool) (string, *App) {
	t.Helper()
	spec, err := topology.Generate(topology.Params{
		Services: 80, Endpoints: 4, MaxFanout: 4, Depth: 4, ModeMix: [3]float64{2, 3, 4},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	se, a, clusters, assign := shardedBed(t, spec, 11, shards, 8)
	a.poison = poison
	a.SetRetryPolicy(&RetryPolicy{MaxRetries: 2, Backoff: 2 * sim.Millisecond})
	root := spec.Endpoints[0].Root
	a.SetEdgeFaults(map[Edge]EdgeFault{{From: "client", To: root.Service}: {Delay: sim.Millisecond}}, nil)
	out := ""
	a.SetResultHook(func(r Result) {
		out += fmt.Sprintf("%d %s %d %v\n", r.Trace, r.Type, r.Latency, r.Dropped)
	})
	requests := uint64(600 * bursts)
	mix := sim.Stream(11, "storm-mix")
	for b := 0; b < bursts; b++ {
		for i := 0; i < 600; i++ {
			a.Engine().Schedule(sim.Time(b)*sim.Second+sim.Time(i)*300*sim.Microsecond, func() { a.SubmitMix(mix, nil) })
		}
	}
	victim := root.Children[0].Call.Service
	se.Shard(assign[victim]).Schedule(60*sim.Millisecond, func() {
		rs := clusters[assign[victim]].ReplicaSet(victim)
		for _, c := range append([]*cluster.Container(nil), rs.Containers()...) {
			rs.RemoveReplica(c)
		}
	})
	se.SetWorkers(workers)
	se.RunUntil(30 * sim.Second)
	if a.Completed+a.Dropped != requests || a.Completed == 0 || a.Dropped == 0 {
		t.Fatalf("shards=%d: completed=%d dropped=%d, want a mix summing to %d", shards, a.Completed, a.Dropped, requests)
	}
	if se.Pending() != 0 {
		t.Fatalf("shards=%d: %d events or mails still pending", shards, se.Pending())
	}
	return out + fmt.Sprintf("steps=%d c=%d d=%d v=%d", se.Steps(), a.Completed, a.Dropped, a.Violations), a
}

// TestShardLayout pins the hand-computed padding: a shard fills exactly two
// cache lines, so shards that push and pop frames concurrently never share
// one.
func TestShardLayout(t *testing.T) {
	if sz := unsafe.Sizeof(shard{}); sz != 128 {
		t.Fatalf("shard is %d bytes, want 128", sz)
	}
}

// TestShardedFrameLifetime: with released frames and request contexts
// poisoned instead of reused, no frame of a sharded deployment is fired,
// reported to, drained into or released after its release, and no context
// is touched after it finished (any of those panics) — on one shard and on
// four run by four workers, where a frame touched by two shards in one window
// is also a data race. Pooled, every shard's freelist ends holding each frame
// once, cleared — and four bursts leave no more frames behind than one did: a
// pool gets back what it hands out (result frames included), so the frames
// are the peak concurrency, not a count of calls. Contexts, taken and
// finished on the home shard, pool there only.
func TestShardedFrameLifetime(t *testing.T) {
	pooled := func(shards, bursts int) int {
		_, a := shardedStorm(t, shards, shards, bursts, false)
		checkReqPool(t, a, 600*bursts)
		seen := map[*frame]bool{}
		for i := range a.shards {
			for _, f := range a.shards[i].free {
				if seen[f] {
					t.Fatalf("shards=%d: frame on a freelist twice", shards)
				}
				seen[f] = true
				if f.state != frameFree || f.ctx != nil || f.up != nil || f.target != nil || f.drain != 0 {
					t.Fatalf("shards=%d: freelist frame not cleared: %+v", shards, f)
				}
			}
		}
		return len(seen)
	}
	for _, shards := range []int{1, 4} {
		_, a := shardedStorm(t, shards, shards, 1, true)
		for i := range a.shards {
			if n, m := len(a.shards[i].free), len(a.shards[i].reqs); n != 0 || m != 0 {
				t.Fatalf("shards=%d: poisoned run recycled %d frames, %d contexts on shard %d", shards, n, m, i)
			}
		}
		one, four := pooled(shards, 1), pooled(shards, 4)
		if one == 0 || four > one+one/4 {
			t.Fatalf("shards=%d: %d frames pooled after one burst, %d after four; want the peak concurrency both times", shards, one, four)
		}
	}
}

// TestShardedRetryAndEdgeDelayAcrossShardCounts: retries and edge delays,
// which the sharded path never had before it ran on frames, keep its
// contract — every outcome and the step count identical at any shard and
// worker count.
func TestShardedRetryAndEdgeDelayAcrossShardCounts(t *testing.T) {
	want, _ := shardedStorm(t, 1, 1, 1, false)
	for _, cfg := range []struct{ shards, workers int }{{2, 1}, {2, 2}, {3, 3}, {5, 2}} {
		if got, _ := shardedStorm(t, cfg.shards, cfg.workers, 1, false); got != want {
			t.Fatalf("shards=%d workers=%d diverged from one shard:\n got: %.300s\nwant: %.300s", cfg.shards, cfg.workers, got, want)
		}
	}
}

// TestShardedRejectsEdgeFaultLoss: loss draws from one stream, which the
// shards of a deployment would race on; arming it says so instead.
func TestShardedRejectsEdgeFaultLoss(t *testing.T) {
	_, a, _, _ := shardedBed(t, fanSpec(topology.Par), 1, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("edge-fault loss on a sharded deployment: want panic")
		}
	}()
	a.SetEdgeFaults(map[Edge]EdgeFault{{From: "client", To: "front"}: {Drop: 0.5}}, sim.Stream(1, "loss"))
}
