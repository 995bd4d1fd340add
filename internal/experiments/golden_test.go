package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firm/internal/report"
	"firm/internal/runner"
)

// Regenerate golden files after an intentional behavior change with:
//
//	go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenConfigs is the pool-size matrix every golden experiment renders
// under: one worker (everything inline, one rollout actor), two, and eight
// (more workers than jobs, so rollouts and shard windows borrow the spare
// slots). Both artifacts (stdout text and canonical JSON) must be
// byte-identical across all of them — the determinism contract of
// internal/runner and internal/rollout, pinned to disk so a regression
// cannot slip in as "both runs changed the same way".
var goldenConfigs = []int{1, 2, 8}

// mustGet returns the declared experiment id's runner.
func mustGet(t *testing.T, id string) Runner {
	t.Helper()
	run, ok := Get(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	return run
}

// runAs runs the declared experiment id and returns its result as R.
func runAs[R Reportable](t *testing.T, id string, x Exec, sc Scale, seed int64) R {
	t.Helper()
	r, err := mustGet(t, id)(x, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r.(R)
}

// render renders an experiment artifact — the stdout text and the canonical
// campaign JSON — executed as x says.
func render(t *testing.T, x Exec, fn Runner) (text string, jsonOut []byte) {
	t.Helper()
	r, err := fn(x, TinyScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Report()
	rep.Scale = "tiny"
	rep.Seed = 42
	out, err := report.Marshal(&report.Campaign{
		Tool: "firmbench", Scale: "tiny", Seed: 42,
		Reports: []*report.Report{rep},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r.String(), out
}

// assertGolden renders the experiment under x and compares both artifacts
// with the committed ones (<name>.golden for stdout, <name>.json for the
// campaign record).
func assertGolden(t *testing.T, name string, x Exec, fn Runner) {
	t.Helper()
	wantText, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	wantJSON, err := os.ReadFile(filepath.Join("testdata", name+".json"))
	if err != nil {
		t.Fatalf("missing golden JSON file (regenerate with -update): %v", err)
	}
	text, jsonOut := render(t, x, fn)
	if text != string(wantText) {
		t.Errorf("%s at parallel=%d shards=%d differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
			name, x.Pool.Workers(), x.shards(), text, wantText)
	}
	if string(jsonOut) != string(wantJSON) {
		t.Errorf("%s JSON at parallel=%d shards=%d differs from golden:\n--- got ---\n%s\n--- want ---\n%s",
			name, x.Pool.Workers(), x.shards(), jsonOut, wantJSON)
	}
}

// goldenCheck asserts both artifacts are byte-identical to the committed
// golden files at every goldenConfigs pool size.
func goldenCheck(t *testing.T, name string, fn Runner) {
	t.Helper()
	if *updateGolden {
		text, jsonOut := render(t, Exec{Pool: runner.NewPool(goldenConfigs[0])}, fn)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", name+".golden"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", name+".json"), jsonOut, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range goldenConfigs {
		assertGolden(t, name, Exec{Pool: runner.NewPool(workers)}, fn)
	}
}

func TestFig11bGoldenAcrossRolloutWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; run without -short")
	}
	goldenCheck(t, "fig11b_tiny", mustGet(t, "fig11b"))
}

func TestFig11aGoldenAcrossRolloutWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; run without -short")
	}
	goldenCheck(t, "fig11a_tiny", mustGet(t, "fig11a"))
}

func TestFig10GoldenAcrossRolloutWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; run without -short")
	}
	goldenCheck(t, "fig10_tiny", mustGet(t, "fig10"))
}

// TestGoldenJSONRoundTrips pins the canonicalization contract on real
// campaign files: decoding a committed golden JSON and re-encoding it must
// reproduce the bytes exactly.
func TestGoldenJSONRoundTrips(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Skip("no golden JSON files yet (regenerate with -update)")
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := report.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		got, err := report.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: decode → re-encode not byte-stable", path)
		}
	}
}

// TestTrainRewardsIndependentOfWorkers pins the engine's contract at the
// Train level: the worker budget — pinned at 1, 2 or 4, or borrowed from a
// pool — sets the width of both the behaviour-cloning epochs and the episode
// rollouts, and must not change a single reward or trained byte.
// (SyncEvery, by contrast, legitimately shapes training — but at this
// episode count the actor sits inside its ActorDelay warm-up, so that
// effect is asserted in internal/rollout's unit tests with a fast config
// instead.)
func TestTrainRewardsIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; run without -short")
	}
	train := func(workers int, pool *runner.Pool) string {
		res, err := Train(TrainOpts{
			Seed: 11, Episodes: 4, Variant: OneForAll,
			RolloutWorkers: workers, Pool: pool, SyncEvery: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := res.Provider.Agents()[0].Save()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v\nactor %x\ncritic %x", res.Rewards, snap.Actor, snap.Critic)
	}
	ref := train(1, nil)
	for _, tc := range []struct {
		name    string
		workers int
		pool    *runner.Pool
	}{
		{"2 pinned", 2, nil},
		{"4 pinned", 4, nil},
		{"borrowed from a pool of 3", 0, runner.NewPool(3)},
	} {
		if got := train(tc.workers, tc.pool); got != ref {
			t.Fatalf("%s workers changed rewards or weights:\n%.200s\n%.200s", tc.name, ref, got)
		}
		if tc.pool != nil {
			if spare := tc.pool.AcquireUpTo(3); spare != 3 {
				t.Fatalf("Train returned with %d of the pool's 3 slots still claimed", 3-spare)
			}
		}
	}
}

// TestGenSweepGoldenAcrossWorkers pins the generated-topology scale sweep:
// stdout and canonical JSON must be byte-identical at every worker
// configuration — the sweep's cells (generated spec + thinned heavy-traffic
// arrivals) are placement-independent by construction.
func TestGenSweepGoldenAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 1,000-service topologies; run without -short")
	}
	goldenCheck(t, "gensweep_tiny", mustGet(t, "gensweep"))
}

// TestGenSweepGoldenAcrossShards pins the sharded engine's contract against
// the same goldens: the 10,000-service cell must render byte-identically at
// shards 1 and 2 (the pool matrix above already covers the default 8).
// Shard count, like worker count, is an execution setting — never a result
// setting.
func TestGenSweepGoldenAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 10,000-service topologies; run without -short")
	}
	for _, shards := range []int{1, 2} {
		assertGolden(t, "gensweep_tiny", Exec{Pool: runner.NewPool(2), Shards: shards}, mustGet(t, "gensweep"))
	}
}

// TestFaultSweepGoldenAcrossWorkers pins the fault-scenario library sweep:
// every catalog scenario's detection/localization/mitigation row and the
// k-means fault-family characterization must render byte-identically at
// every worker configuration — scenario players derive all randomness from
// (campaign seed, scenario key), so cells are placement-independent.
func TestFaultSweepGoldenAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full scenario catalog; run without -short")
	}
	goldenCheck(t, "faultsweep_tiny", mustGet(t, "faultsweep"))
}

// TestFaultSweepGoldenAcrossShards pins the sharded scenario contract
// against the same goldens: the sharded cell arms its player on the shard
// owning the victim service, and its row must render byte-identically at
// shards 1 and 4 (the sweep's structural families are excluded from that
// cell precisely because replica churn is not shard-invariant).
func TestFaultSweepGoldenAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full scenario catalog; run without -short")
	}
	for _, shards := range []int{1, 4} {
		assertGolden(t, "faultsweep_tiny", Exec{Pool: runner.NewPool(2), Shards: shards}, mustGet(t, "faultsweep"))
	}
}

// TestConcurrentCampaignsUnderDifferentExec runs two campaigns at once in
// one process, each under its own Exec — the serial extreme and a wide pool
// with a different shard count — and holds both to the committed goldens.
// Execution settings are values owned by their campaign, so neither can
// see the other's; with process-wide settings this test could not be
// written.
func TestConcurrentCampaignsUnderDifferentExec(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 10,000-service topologies; run without -short")
	}
	for _, x := range []Exec{
		{Pool: runner.NewPool(1), Shards: 1},
		{Pool: runner.NewPool(8), Shards: 4},
	} {
		t.Run(fmt.Sprintf("parallel%d-shards%d", x.Pool.Workers(), x.Shards), func(t *testing.T) {
			t.Parallel()
			assertGolden(t, "gensweep_tiny", x, mustGet(t, "gensweep"))
		})
	}
}
