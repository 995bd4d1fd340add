package experiments

import (
	"runtime"
	"testing"

	"firm/internal/harness"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/topology"
)

// renderWithWorkers runs fn on a pool of the given size and returns the
// rendered artifact.
func renderWithWorkers(t *testing.T, workers int, fn Runner, sc Scale, seed int64) string {
	t.Helper()
	r, err := fn(Exec{Pool: runner.NewPool(workers)}, sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r.String()
}

// parallelWorkers picks a many-worker pool even on single-core CI machines
// so goroutine interleaving is actually exercised.
func parallelWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

func TestFig5ParallelDeterminism(t *testing.T) {
	// The full quick-scale sweep (72 jobs) is exercised by the CI smoke
	// run; one repetition of the trimmed sweep is enough to pit 1 worker
	// against a full pool on every axis of the campaign.
	if testing.Short() {
		t.Skip("fig5 sweep is expensive; run without -short")
	}
	sc := Scale{Name: "tiny", DurationMul: 0.05, EpisodeCount: 1, CheckpointEvery: 1, Reps: 1}
	seq := renderWithWorkers(t, 1, mustGet(t, "fig5"), sc, 42)
	par := renderWithWorkers(t, parallelWorkers(), mustGet(t, "fig5"), sc, 42)
	if seq != par {
		t.Fatalf("fig5 output depends on worker count:\n--- 1 worker ---\n%s\n--- %d workers ---\n%s",
			seq, parallelWorkers(), par)
	}
}

func TestTable1ParallelDeterminism(t *testing.T) {
	seq := renderWithWorkers(t, 1, mustGet(t, "table1"), QuickScale(), 42)
	par := renderWithWorkers(t, parallelWorkers(), mustGet(t, "table1"), QuickScale(), 42)
	if seq != par {
		t.Fatalf("table1 output depends on worker count:\n--- 1 worker ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

// tinyScale keeps the RL experiments' shape while making them cheap enough
// for the race detector: the point of these tests is the concurrency
// structure (cloned/transferred agents across parallel evaluation jobs),
// not the numbers.
func tinyScale() Scale {
	return Scale{Name: "tiny", DurationMul: 0.05, EpisodeCount: 2, CheckpointEvery: 1, Reps: 1}
}

func TestFig10TinyParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; run without -short")
	}
	seq := renderWithWorkers(t, 1, mustGet(t, "fig10"), tinyScale(), 7)
	par := renderWithWorkers(t, parallelWorkers(), mustGet(t, "fig10"), tinyScale(), 7)
	if seq != par {
		t.Fatalf("fig10 output depends on worker count:\n%s\nvs\n%s", seq, par)
	}
}

func TestFig11aTinyParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains RL agents; run without -short")
	}
	seq := renderWithWorkers(t, 1, mustGet(t, "fig11a"), tinyScale(), 7)
	par := renderWithWorkers(t, parallelWorkers(), mustGet(t, "fig11a"), tinyScale(), 7)
	if seq != par {
		t.Fatalf("fig11a output depends on worker count:\n%s\nvs\n%s", seq, par)
	}
}

func TestFig9cReplaysFig9bSchedule(t *testing.T) {
	// fig9c documents the schedule fig9bRun runs for the first benchmark.
	// The seed is shared by construction (fig9bPairSeed); this replays the
	// drawing protocol against fig9c's output so drift in either copy of
	// the protocol (fig9c's loop vs fig9bRun's runWindow) is caught.
	seed := int64(9)
	spec := topology.All()[0]
	res := runAs[*Fig9cResult](t, "fig9c", Exec{}, TinyScale(), seed)
	if len(res.Kinds) == 0 || len(res.Windows) == 0 {
		t.Fatal("empty schedule")
	}
	r := sim.Stream(fig9bPairSeed(seed, spec.Name), "fig9b")
	for w := range res.Windows {
		for _, k := range res.Kinds {
			intensity := r.Float64()
			if intensity < 0.35 {
				intensity = 0
			}
			if got := res.Intensity[k][w]; got != intensity {
				t.Fatalf("window %d kind %s: fig9c says %.3f, schedule replay says %.3f", w, k, got, intensity)
			}
			if intensity > 0 {
				r.Intn(fig9bTargetCount(spec)) // target draw, as fig9bRun consumes
			}
		}
	}
}

func TestFig9bTargetCountMatchesBench(t *testing.T) {
	// fig9c's schedule replay assumes the spec's initial replica count
	// equals the bench's injection-target pool; if harness deployment ever
	// changes that (sidecars, calibration replicas), the replay desyncs.
	for _, spec := range topology.All() {
		b, err := harness.New(harness.Options{Seed: 1, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(b.Containers()), fig9bTargetCount(spec); got != want {
			t.Fatalf("%s: bench has %d containers, spec says %d", spec.Name, got, want)
		}
	}
}
