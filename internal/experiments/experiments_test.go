package experiments

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"firm/internal/core"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/rl"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/topology"
)

// The fast experiments run end-to-end in tests; the RL-heavy ones are
// exercised by CI's `firmbench -run all -scale quick` smoke.

func TestTable6Shape(t *testing.T) {
	r := runAs[*Table6Result](t, "table6", Exec{}, QuickScale(), 1)
	for _, op := range []string{"cpu", "mem", "llc", "io", "net", "warm-start", "cold-start"} {
		if r.Mean[op] <= 0 {
			t.Fatalf("op %s not measured", op)
		}
	}
	// Table 6 invariants: cold start dominates; mem/llc partition ops are
	// an order of magnitude above cpu/io ones.
	if r.Mean["cold-start"] < 20*r.Mean["warm-start"] {
		t.Fatal("cold start must dwarf warm start")
	}
	if r.Mean["mem"] < 5*r.Mean["cpu"] {
		t.Fatal("mem partition must be far slower than cpu")
	}
	if !strings.Contains(r.Report().Text(), "cold-start") {
		t.Fatal("render")
	}
}

func TestTable1Shape(t *testing.T) {
	r := runAs[*Table1Result](t, "table1", Exec{}, QuickScale(), 42)
	rows := map[string]table1Row{}
	for i, victim := range table1Victims {
		rows[victim] = r.Rows[i]
	}
	// The injected service's individual latency must inflate relative to
	// its unstressed rows, and the CP signature must route through it
	// (Insight 1; Table 1's diagonal dominance is per column, not per row —
	// e.g. video's base latency exceeds a stressed user-tag's).
	cols := map[string]string{"video": "V", "user-tag": "U", "text": "T"}
	for victim, col := range cols {
		stressed := rows[victim].Row[col]
		for other := range cols {
			if other == victim {
				continue
			}
			if base := rows[other].Row[col]; stressed <= base {
				t.Fatalf("%s injection: %s stressed (%.1f) must exceed its base (%.1f)",
					victim, col, stressed, base)
			}
		}
		if !strings.Contains(rows[victim].Sig, victim) {
			t.Fatalf("CP under %s injection misses it: %s", victim, rows[victim].Sig)
		}
	}
}

// TestDominantSigBreaksTiesBySignature: Table 1's critical path is the
// most frequent signature, and a tie goes to the smallest one whatever
// order the counts map ranges in.
func TestDominantSigBreaksTiesBySignature(t *testing.T) {
	count := map[string]int{"n→v→c": 4, "n→u→c": 7, "n→t→c": 7, "n→a→c": 2}
	for i := 0; i < 50; i++ { // map order differs run to run, and within one
		if got := dominantSig(count); got != "n→t→c" {
			t.Fatalf("dominantSig = %q, want the smaller of the two most frequent, n→t→c", got)
		}
	}
	if got := dominantSig(map[string]int{}); got != "" {
		t.Fatalf("dominantSig of no traces = %q, want empty", got)
	}
}

func TestFig3Shape(t *testing.T) {
	r := runAs[*Fig3Result](t, "fig3", Exec{}, QuickScale(), 1)
	if len(r.Rows) != 4 {
		t.Fatalf("rows: %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MaxMedian < row.MinMedian {
			t.Fatalf("%s: max-CP median below min-CP", row.Benchmark)
		}
		if row.Groups < 2 {
			t.Fatalf("%s: no CP diversity", row.Benchmark)
		}
	}
}

func TestFig9cDeterministic(t *testing.T) {
	a := runAs[*Fig9cResult](t, "fig9c", Exec{}, TinyScale(), 5)
	b := runAs[*Fig9cResult](t, "fig9c", Exec{}, TinyScale(), 5)
	for _, k := range a.Kinds {
		for i := range a.Intensity[k] {
			if a.Intensity[k][i] != b.Intensity[k][i] {
				t.Fatal("schedule must be deterministic per seed")
			}
		}
	}
	if len(a.Windows) != 12 {
		t.Fatalf("windows: %d (paper: T1..T12)", len(a.Windows))
	}
}

func TestFig10Run(t *testing.T) {
	// Every Fig. 10 arm must run end-to-end and collect statistics.
	for _, p := range fig10Policies {
		st, err := fig10Run(2, 10*sim.Second, p, harness.SharedAgent(2))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if st.Completed == 0 || len(st.Latencies) == 0 {
			t.Fatalf("%v: no traffic", p)
		}
		if len(st.CPULimitSamples) == 0 {
			t.Fatalf("%v: no CPU samples", p)
		}
	}
}

// TestFig10ArmsSeeOneCampaign runs every arm of one Fig. 10 cell on the
// cell's world seed, derived as fig10Jobs derives it, and requires the same
// anomaly campaign in each: what the arms are compared on must not depend
// on the policy under test.
func TestFig10ArmsSeeOneCampaign(t *testing.T) {
	type activation struct {
		kind      injector.Kind
		target    uint32
		intensity float64
		start     sim.Time
		end       sim.Time
	}
	world := sim.DeriveSeed(42, "fig10-world")
	var ref []activation
	for i, p := range fig10Policies {
		b, _, err := fig10Bench(world, p, harness.SharedAgent(2))
		if err != nil {
			t.Fatal(err)
		}
		b.Eng.RunFor(30 * sim.Second)
		var got []activation
		for _, r := range b.Injector.History() {
			got = append(got, activation{r.Kind, r.Target.ID, r.Intensity, r.Start, r.End})
		}
		if i == 0 {
			if len(got) < 3 {
				t.Fatalf("%v: %d activations in 30 s, want a campaign", p, len(got))
			}
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("%v saw a different campaign than %v:\n%v\nvs\n%v", p, fig10Policies[0], got, ref)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if PolicyFIRMSingle.String() != "FIRM (Single-RL)" ||
		PolicyHPA.String() != "K8S Auto-scaling" || PolicyAIMD.String() != "AIMD" {
		t.Fatal("policy names must match the paper's legends")
	}
}

// TestTrainEpisodeOnResetBedMatchesNew: a training episode on a rollout
// slot's testbed, Reset after the slot's earlier episodes, emits the same
// transitions and reward as the episode on a new testbed — for each episode
// of a short campaign, acting through one policy replica reseeded per
// episode as rollout does.
func TestTrainEpisodeOnResetBedMatchesNew(t *testing.T) {
	opts := TrainOpts{Seed: 11, Spec: topology.TrainTicket()}
	ext := harness.NewExtractor(opts.Seed)
	cfg := rl.DefaultConfig()
	cfg.Seed = opts.Seed
	learner := core.Shared(rl.New(cfg))
	rep := learner.Replica()
	learner.Sync([]*core.Policies{rep})
	episode := func(b *harness.Bench, ep int) (string, int) {
		rep.BeginEpisode(sim.DeriveSeed(opts.Seed, "ep", strconv.Itoa(ep)))
		h, n := fnv.New64a(), 0
		reward := trainEpisode(b, ext, rep, func(service string, tr rl.Transition) {
			fmt.Fprintf(h, "%s %v %v %v %v %v\n", service, tr.S, tr.A, tr.R, tr.S2, tr.Done)
			n++
		})
		return fmt.Sprintf("reward %v, %d transitions digesting to %x", reward, n, h.Sum64()), n
	}
	slot, err := harness.New(trainBedOptions(opts))
	if err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 3; ep++ {
		if ep > 0 {
			slot.Reset(opts.Seed)
		}
		got, _ := episode(slot, ep)
		b, err := harness.New(trainBedOptions(opts))
		if err != nil {
			t.Fatal(err)
		}
		want, n := episode(b, ep)
		if n == 0 {
			t.Fatalf("episode %d emitted no transitions; it tests nothing", ep)
		}
		if got != want {
			t.Fatalf("episode %d on the slot's Reset testbed: %s; on a new one: %s", ep, got, want)
		}
	}
}

// TestTrainResetBedsAcrossBudgetSlots: a campaign whose rounds borrow their
// actors from a pool — so a slot's testbed may pass between goroutines from
// one round to the next, and is Reset each time — trains the same weights
// as one actor resetting one testbed for every episode. Under the race
// detector it is also the check that no two goroutines reach one slot's
// testbed.
func TestTrainResetBedsAcrossBudgetSlots(t *testing.T) {
	train := func(workers int, pool *runner.Pool) string {
		res, err := Train(TrainOpts{Seed: 5, Episodes: 6, Variant: OneForAll, RolloutWorkers: workers, Pool: pool, SyncEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := res.Provider.Agents()[0].Save()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v\nactor %x", res.Rewards, snap.Actor)
	}
	if got, want := train(0, runner.NewPool(3)), train(1, nil); got != want {
		t.Fatalf("pool-borrowed slots trained\n%.200s\none slot trained\n%.200s", got, want)
	}
}
