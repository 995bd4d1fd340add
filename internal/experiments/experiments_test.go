package experiments

import (
	"strings"
	"testing"

	"firm/internal/report"
	"firm/internal/sim"
	"firm/internal/topology"
	"firm/internal/workload"
)

// The fast experiments run end-to-end in tests; the RL-heavy ones are
// exercised by CI's `firmbench -run all -scale quick` smoke.

func TestTable6Shape(t *testing.T) {
	r, err := Table6(Exec{}, QuickScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
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
	if !strings.Contains(r.String(), "cold-start") {
		t.Fatal("render")
	}
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(Exec{}, QuickScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// The injected service's individual latency must inflate relative to
	// its unstressed rows, and the CP signature must route through it
	// (Insight 1; Table 1's diagonal dominance is per column, not per row —
	// e.g. video's base latency exceeds a stressed user-tag's).
	cols := map[string]string{"video": "V", "user-tag": "U", "text": "T"}
	for victim, col := range cols {
		stressed := r.Rows[victim][col]
		for other := range cols {
			if other == victim {
				continue
			}
			if base := r.Rows[other][col]; stressed <= base {
				t.Fatalf("%s injection: %s stressed (%.1f) must exceed its base (%.1f)",
					victim, col, stressed, base)
			}
		}
		if !strings.Contains(r.CPSignatures[victim], victim) {
			t.Fatalf("CP under %s injection misses it: %s", victim, r.CPSignatures[victim])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	r, err := Fig3(Exec{}, QuickScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
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
	a, err := Fig9c(Exec{}, TinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig9c(Exec{}, TinyScale(), 5)
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunPolicies(t *testing.T) {
	// Every policy arm must run end-to-end and collect statistics.
	for _, p := range []Policy{PolicyNone, PolicyHPA, PolicyAIMD} {
		st, err := Run(RunOpts{
			Seed: 2, Spec: topology.HotelReservation(),
			Pattern:  workload.Constant{RPS: 100},
			Duration: 10 * sim.Second, Policy: p,
		})
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

func TestPolicyNames(t *testing.T) {
	if PolicyFIRMSingle.String() != "FIRM (Single-RL)" ||
		PolicyHPA.String() != "K8S Auto-scaling" || PolicyAIMD.String() != "AIMD" {
		t.Fatal("policy names must match the paper's legends")
	}
}

func TestTableRender(t *testing.T) {
	tb := &report.Table{Title: "T", Header: []string{"a", "bb"}}
	tb.Add("1", "2")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "bb") {
		t.Fatalf("render: %q", out)
	}
}
