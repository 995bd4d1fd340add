package perf

import (
	"flag"
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkPerf exposes the registry to `go test -bench`: one sub-benchmark
// per entry, named as the registry names it.
func BenchmarkPerf(b *testing.B) {
	for _, bm := range Benchmarks() {
		b.Run(bm.Name, bm.Fn)
	}
}

// TestRegistry: names are unique, Find round-trips, unknown names error.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, bm := range Benchmarks() {
		if bm.Name == "" || bm.Desc == "" || bm.Fn == nil || bm.MaxAllocs < 0 {
			t.Fatalf("incomplete registration %+v", bm)
		}
		if seen[bm.Name] {
			t.Fatalf("duplicate benchmark name %q", bm.Name)
		}
		seen[bm.Name] = true
		if got, err := Find(bm.Name); err != nil || got.Name != bm.Name {
			t.Fatalf("Find(%q) = %v, %v", bm.Name, got.Name, err)
		}
	}
	if _, err := Find("no-such-bench"); err == nil {
		t.Fatal("Find of unknown benchmark must error")
	}
	if _, err := Run([]string{"no-such-bench"}); err == nil {
		t.Fatal("Run of unknown benchmark must error")
	}
}

// capBenchtime shortens testing.Benchmark runs for the duration of a test,
// the way benchmark/ does for its probes: an allocs/op count needs enough
// iterations to amortise first-iteration growth, not the default second.
func capBenchtime(t *testing.T, d string) {
	t.Helper()
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := f.Value.Set(d); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Value.Set(old) })
}

// checkBudget runs bm and reports an error when its allocs/op exceeds the
// entry's ceiling.
func checkBudget(bm Benchmark) error {
	if got := bm.run().AllocsPerOp; got > float64(bm.MaxAllocs) {
		return fmt.Errorf("PERF REGRESSION: %s allocs/op = %g exceeds the committed budget %d", bm.Name, got, bm.MaxAllocs)
	}
	return nil
}

// TestAllocBudgets is the perf-regression gate: every registry entry must
// stay within its committed allocs/op ceiling. It counts on one P, where the
// count is a property of the code alone: with two, rl-pretrain's two-worker
// epoch read 84, 85 or 86 allocs/op on one binary, by scheduling.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every microbenchmark")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	capBenchtime(t, "200ms")
	for _, bm := range Benchmarks() {
		if err := checkBudget(bm); err != nil {
			t.Error(err)
		}
	}
}

// leakSink keeps the fake entry's allocation from being optimised away.
var leakSink []byte

// TestCheckBudgetCatchesRegression drives the checker with a fake entry that
// allocates once per op: over a zero budget it must fail, within a budget of
// one it must pass.
func TestCheckBudgetCatchesRegression(t *testing.T) {
	capBenchtime(t, "100x")
	leaky := Benchmark{Name: "leaky", Fn: func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			leakSink = make([]byte, 64)
		}
	}}
	if err := checkBudget(leaky); err == nil {
		t.Fatal("1 alloc/op passed a budget of 0")
	}
	leaky.MaxAllocs = 1
	if err := checkBudget(leaky); err != nil {
		t.Fatalf("1 alloc/op failed a budget of 1: %v", err)
	}
}

// TestCoreTickAllocFree is the headline invariant behind the tick-path
// budgets: the steady-state controller tick performs zero heap allocations
// (the registry's ceiling of 2 leaves room for amortised growth only).
func TestCoreTickAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed setup is seconds-long")
	}
	bed := newTickBed()
	bed.ctl.TickNow()
	if n := bed.ctl.Monitor().Len(); n < 50 {
		t.Fatalf("benchmark window holds %d traces; the measurement would be vacuous", n)
	}
	allocs := testing.AllocsPerRun(50, func() { bed.ctl.TickNow() })
	if allocs != 0 {
		t.Fatalf("steady-state tick allocs/op = %v, want 0", allocs)
	}
}
