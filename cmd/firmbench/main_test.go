package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"firm/internal/perf"
	"firm/internal/report"
)

func TestValidateRejectsContradictoryInvocations(t *testing.T) {
	bad := map[string]string{
		"diff-one-arg":               "-diff a.json",
		"diff-three-args":            "-diff a b c",
		"diff-with-run":              "-diff -run fig3 a b",
		"diff-with-json":             "-diff -json out.json a b",
		"diff-with-serve":            "-diff -serve :8701 a b",
		"diff-with-dist":             "-diff -dist h:1 a b",
		"diff-with-scenarios":        "-diff -scenarios a b",
		"negative-tol":               "-diff -tol -0.1 a b",
		"nan-tol":                    "-diff -tol NaN a b",
		"bad-tol-metric":             "-diff -tol-metric p99=-1 a b",
		"tol-without-diff":           "-run fig3 -tol 0.5",
		"tol-metric-without-diff":    "-run fig3 -tol-metric p99=0.1",
		"stray-args":                 "-run fig3 a.json",
		"serve-with-run":             "-serve :8701 -run fig3",
		"serve-with-json":            "-serve :8701 -json o.json",
		"serve-with-dist":            "-serve :8701 -dist h:1",
		"serve-with-list":            "-serve :8701 -list",
		"serve-with-scale":           "-serve :8701 -scale tiny",
		"dist-without-run":           "-dist h1:1,h2:1",
		"dist-with-list":             "-dist h1:1 -run all -list",
		"dist-empty-host":            "-dist h1:1,,h2:1 -run all",
		"negative-dist-timeout":      "-dist h1:1 -run all -dist-timeout -1s",
		"dist-timeout-without-dist":  "-run fig3 -dist-timeout 1m",
		"bench-with-run":             "-bench -run fig3",
		"bench-with-list":            "-bench -list",
		"bench-with-serve":           "-bench -serve :8701",
		"bench-with-dist":            "-bench -dist h:1",
		"bench-with-diff":            "-bench -diff a b",
		"bench-with-scale":           "-bench -scale quick",
		"bench-with-seed":            "-bench -seed 42",
		"bench-with-parallel":        "-bench -parallel 2",
		"bench-allocs-without-bench": "-run fig3 -bench-allocs core-tick=2",
		"bench-with-dist-timeout":    "-bench -dist-timeout 1m",
		"diff-with-dist-timeout":     "-diff -dist-timeout 1m a b",
		"cpuprofile-without-target":  "-cpuprofile cpu.pprof",
		"memprofile-without-target":  "-memprofile mem.pprof",
		"cpuprofile-with-serve":      "-serve :8701 -cpuprofile cpu.pprof",
		"cpuprofile-with-diff":       "-diff -cpuprofile cpu.pprof a b",
		"bench-trend-with-run":       "-bench-trend -run fig3",
		"bench-trend-with-list":      "-bench-trend -list",
		"bench-trend-with-serve":     "-bench-trend -serve :8701",
		"bench-trend-with-dist":      "-bench-trend -dist h:1",
		"bench-trend-with-diff":      "-bench-trend -diff a b",
		"bench-trend-with-json":      "-bench-trend -json o.json",
		"bench-trend-with-shards":    "-bench-trend -shards 2",
		"list-with-run":              "-list -run fig3",
		"list-with-args":             "-list fig3",
		"scale-without-run":          "-scale tiny",
		// -scenarios used to be missing from every exclusion list, so these
		// two silently ignored one of their flags.
		"scenarios-with-run":  "-scenarios -run fig3",
		"scenarios-with-diff": "-scenarios -diff a b",
		"false-selector":      "-bench=false",
	}
	for name, line := range bad {
		if inv, err := parseArgs(strings.Fields(line)); err == nil {
			t.Errorf("%s: %q accepted as mode %s, want rejection", name, line, inv.mode)
		}
	}
	good := map[string]string{ // command line -> mode
		"":           modeList,
		"-list":      modeList,
		"-scenarios": modeScenarios,
		"-run fig3":  modeCampaign,
		"-run all -scale tiny -seed 7 -parallel 8 -shards 4 -quiet -json -": modeCampaign,
		"-run fig3 -cpuprofile cpu.pprof -memprofile mem.pprof":             modeCampaign,
		"-diff -tol 0.05 -tol-metric p99=0.1 a b":                           modeDiff,
		"-serve :8701": modeServe,
		"-serve :8701 -parallel 4 -shards 2 -quiet":                       modeServe,
		"-dist h1:1,h2:1 -run all -json o.json -dist-timeout 1m":          modeDist,
		"-dist h1:1 -run all -cpuprofile cpu.pprof -parallel 2 -shards 1": modeDist,
		"-bench": modeBench,
		"-bench -json BENCH.json -bench-allocs core-tick=2 core-tick": modeBench,
		"-bench -cpuprofile cpu.pprof -memprofile mem.pprof":          modeBench,
		"-bench -bench-trend -json BENCH_ci.json":                     modeBench,
		"-bench-trend":                           modeBenchTrend,
		"-bench-trend BENCH_5.json BENCH_6.json": modeBenchTrend,
	}
	for line, want := range good {
		inv, err := parseArgs(strings.Fields(line))
		if err != nil {
			t.Errorf("%q: valid invocation rejected: %v", line, err)
		} else if inv.mode != want {
			t.Errorf("%q: mode %s, want %s", line, inv.mode, want)
		}
	}
	if inv, err := parseArgs(strings.Fields("-dist h1:1 -run all -dist-timeout 1m -parallel 3")); err != nil ||
		inv.dist != "h1:1" || inv.run != "all" || inv.distTimeout != time.Minute || inv.parallel != 3 || inv.scale != "quick" || inv.seed != 42 {
		t.Errorf("parsed values wrong: %+v, %v", inv, err)
	}
}

// TestFlagCensus pins the set of command-line flags: adding, renaming or
// removing one is an edit to this list, so a new knob is always a reviewed
// decision (and must be placed in the modes table, which the second half
// checks).
func TestFlagCensus(t *testing.T) {
	want := []string{
		"bench", "bench-allocs", "bench-trend", "cpuprofile", "diff", "dist",
		"dist-timeout", "json", "list", "memprofile", "parallel", "quiet", "run",
		"scale", "scenarios", "seed", "serve", "shards", "tol", "tol-metric",
	}
	var got []string
	fs, _ := newFlagSet()
	fs.VisitAll(func(f *flag.Flag) {
		got = append(got, f.Name) // VisitAll is lexicographic
	})
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("registered flags changed:\n got: %v\nwant: %v", got, want)
	}
	accepted := map[string]bool{}
	for _, m := range modes {
		for _, f := range m.flags {
			if !slices.Contains(want, f) {
				t.Errorf("mode %s accepts unregistered flag -%s", m.name, f)
			}
			accepted[f] = true
		}
	}
	for _, f := range want {
		if !accepted[f] {
			t.Errorf("flag -%s is accepted by no mode", f)
		}
	}
}

func TestTolMetricFlagSet(t *testing.T) {
	tm := tolMetricFlag{}
	for _, ok := range []string{"p99=0.1", "reward/One-for-All=0", "x=1e-3"} {
		if err := tm.Set(ok); err != nil {
			t.Errorf("Set(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"p99", "=0.1", "p99=", "p99=abc", "p99=-0.1", "p99=NaN"} {
		if err := tm.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted, want error", bad)
		}
	}
	if tm["p99"] != 0.1 || tm["x"] != 1e-3 {
		t.Fatalf("parsed values wrong: %v", tm)
	}
}

func TestSplitHostsTrims(t *testing.T) {
	got := splitHosts(" h1:8701 , h2:8701,")
	if len(got) != 3 || got[0] != "h1:8701" || got[1] != "h2:8701" || got[2] != "" {
		t.Fatalf("splitHosts = %q", got)
	}
}

func TestRunBenchSuiteFlagMisuse(t *testing.T) {
	// A threshold naming a benchmark this invocation does not run would
	// gate nothing; that is misuse (exit 2), caught before any benchmark
	// executes.
	if code := runBenchSuite([]string{"stats-window"}, "", map[string]float64{"core-tick": 2}, false); code != 2 {
		t.Fatalf("threshold for unselected benchmark: exit %d, want 2", code)
	}
	if code := runBenchSuite([]string{"no-such-bench"}, "", nil, false); code != 2 {
		t.Fatalf("unknown benchmark name: exit %d, want 2", code)
	}
	// Duplicates would run twice and emit duplicate row labels, which the
	// report diff semantics treat as a structural mismatch.
	if code := runBenchSuite([]string{"stats-window", "stats-window"}, "", nil, false); code != 2 {
		t.Fatalf("duplicate benchmark name: exit %d, want 2", code)
	}
}

// writeBenchFile records a minimal BENCH campaign file with the given
// benchmark allocs/op values, mirroring what `firmbench -bench -json` emits.
func writeBenchFile(t *testing.T, path string, allocs map[string]float64) {
	t.Helper()
	rep := report.New("bench")
	labels := make([]string, 0, len(allocs))
	for l := range allocs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		rep.Row(l).Val("ns-op", "ns", 1000).Val("allocs-op", "allocs", allocs[l]).Val("bytes-op", "B", 0)
	}
	c := &report.Campaign{Tool: "firmbench", Scale: "bench", Seed: perf.Seed}
	c.Merge(rep, 0)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Encode(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchTrendTableAndGate covers -bench-trend end to end: numeric-aware
// column ordering, the rendered trajectory, and the allocs/op gate against
// the best recorded run.
func TestBenchTrendTableAndGate(t *testing.T) {
	dir := t.TempDir()
	// Out-of-order names: numeric history must sort 2 < 10, ad-hoc names
	// (BENCH_ci) after.
	p2 := filepath.Join(dir, "BENCH_2.json")
	p10 := filepath.Join(dir, "BENCH_10.json")
	pci := filepath.Join(dir, "BENCH_ci.json")
	writeBenchFile(t, p2, map[string]float64{"core-tick": 5, "stats-window": 2})
	writeBenchFile(t, p10, map[string]float64{"core-tick": 0})
	writeBenchFile(t, pci, map[string]float64{"core-tick": 0})

	var out strings.Builder
	if code := runBenchTrend(&out, []string{p10, pci, p2}, nil); code != 0 {
		t.Fatalf("trend over recorded files: exit %d, want 0\n%s", code, out.String())
	}
	text := out.String()
	i2, i10, ici := strings.Index(text, "BENCH_2"), strings.Index(text, "BENCH_10"), strings.Index(text, "BENCH_ci")
	if i2 < 0 || i10 < 0 || ici < 0 || !(i2 < i10 && i10 < ici) {
		t.Fatalf("columns not in numeric-then-adhoc order:\n%s", text)
	}
	if !strings.Contains(text, "stats-window") || !strings.Contains(text, "-") {
		t.Fatalf("benchmark missing from a run must render as '-':\n%s", text)
	}

	// Current run matching the best recorded allocs/op passes; exceeding the
	// best recorded run (even while beating a worse older one) fails.
	pass := []perf.Result{{Name: "core-tick", NsPerOp: 900, AllocsPerOp: 0}}
	if code := runBenchTrend(&strings.Builder{}, []string{p2, p10}, pass); code != 0 {
		t.Fatalf("non-regressing current run: exit %d, want 0", code)
	}
	regress := []perf.Result{{Name: "core-tick", NsPerOp: 900, AllocsPerOp: 3}}
	if code := runBenchTrend(&strings.Builder{}, []string{p2, p10}, regress); code != 1 {
		t.Fatalf("allocs regression vs best recorded run: exit %d, want 1", code)
	}
	// Scheduling jitter within 1% of a large count passes; beyond it fails.
	pbig := filepath.Join(dir, "BENCH_11.json")
	writeBenchFile(t, pbig, map[string]float64{"rollout-round-overlap": 2994})
	for allocs, want := range map[float64]int{2997: 0, 3100: 1} {
		cur := []perf.Result{{Name: "rollout-round-overlap", NsPerOp: 1, AllocsPerOp: allocs}}
		if code := runBenchTrend(&strings.Builder{}, []string{pbig}, cur); code != want {
			t.Fatalf("rollout-round-overlap at %g allocs/op vs 2994 recorded: exit %d, want %d", allocs, code, want)
		}
	}
	// A benchmark with no recorded history cannot regress.
	fresh := []perf.Result{{Name: "brand-new", NsPerOp: 1, AllocsPerOp: 99}}
	if code := runBenchTrend(&strings.Builder{}, []string{p2}, fresh); code != 0 {
		t.Fatalf("benchmark without history: exit %d, want 0", code)
	}
	// Unreadable or non-bench files are flag misuse, not a silent pass.
	if code := runBenchTrend(&strings.Builder{}, []string{filepath.Join(dir, "missing.json")}, nil); code != 2 {
		t.Fatal("missing trend file must exit 2")
	}
}
