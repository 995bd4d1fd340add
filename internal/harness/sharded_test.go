package harness

import (
	"fmt"
	"testing"

	"firm/internal/app"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// shardedFingerprint runs a generated topology under load and returns every
// request outcome in completion order plus the final counters. The whole
// point of the sharded path is that this string is identical for any
// (shards, workers) pair.
func shardedFingerprint(t *testing.T, shards, workers int) string {
	t.Helper()
	spec, err := topology.Generate(topology.Params{
		Services: 60, Endpoints: 4, MaxFanout: 3, Depth: 4,
	}, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(ShardedOptions{Seed: 7, Spec: spec, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	b.App.SetResultHook(func(r app.Result) {
		out += fmt.Sprintf("%d %s %d %v\n", r.Trace, r.Type, r.Latency, r.Dropped)
	})
	b.Eng.SetWorkers(workers)
	b.AttachWorkload(workload.Constant{RPS: 80})
	b.Eng.RunFor(3 * sim.Second)
	out += fmt.Sprintf("c=%d d=%d v=%d sub=%d nodes=%d",
		b.App.Completed, b.App.Dropped, b.App.Violations, b.Gen.Submitted, b.NumNodes)
	return out
}

func TestShardedBenchByteIdenticalAcrossShardCounts(t *testing.T) {
	base := shardedFingerprint(t, 1, 1)
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	for _, cfg := range []struct{ shards, workers int }{
		{2, 1}, {2, 2}, {4, 1}, {4, 4}, {8, 3},
	} {
		got := shardedFingerprint(t, cfg.shards, cfg.workers)
		if got != base {
			t.Fatalf("shards=%d workers=%d diverged from shards=1:\n got: %.200s\nwant: %.200s",
				cfg.shards, cfg.workers, got, base)
		}
	}
}

func TestShardedBenchCompletesRequests(t *testing.T) {
	fp := shardedFingerprint(t, 2, 2)
	if len(fp) < 100 {
		t.Fatalf("suspiciously little activity: %q", fp)
	}
}

// shardedStats runs the s200 digest case for a second under load and returns
// the engine's window counters.
func shardedStats(t *testing.T, shards, workers int) sim.ShardStats {
	t.Helper()
	c := shardedDigestCases[3]
	spec, err := topology.Generate(c.p, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSharded(ShardedOptions{Seed: c.seed, Spec: spec, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	b.Eng.SetWorkers(workers)
	b.AttachWorkload(workload.Constant{RPS: c.rps})
	b.Eng.RunFor(sim.Second)
	return b.Eng.Stats()
}

// TestShardedWindowStats pins the sharded engine's window counters
// (sim.ShardStats) on one digest case: the counters are count-type and
// exact, equal at any worker count, and Events/Critical is the most that
// many shards can gain on this model.
func TestShardedWindowStats(t *testing.T) {
	want := map[int]sim.ShardStats{
		1: {Windows: 3235, Parallel: 0, Mails: 52213, Events: 96734, Critical: 96734},
		2: {Windows: 3235, Parallel: 3210, Mails: 52213, Events: 96734, Critical: 65306}, // bound 1.48
		4: {Windows: 3235, Parallel: 3226, Mails: 52213, Events: 96734, Critical: 42934}, // bound 2.25
	}
	for _, shards := range []int{1, 2, 4} {
		got := shardedStats(t, shards, 1)
		if got != want[shards] {
			t.Errorf("shards=%d: stats %+v, pinned %+v", shards, got, want[shards])
		}
		if many := shardedStats(t, shards, shards); many != got {
			t.Errorf("shards=%d: stats %+v on %d workers, %+v on one", shards, many, shards, got)
		}
	}
}
