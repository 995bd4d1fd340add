package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"firm/internal/perf"
	"firm/internal/report"
)

// withProfiles runs f with optional pprof CPU/heap capture around it: the
// CPU profile covers f, the heap profile snapshots f's end state (after a
// GC, so it reflects live retention, not garbage). Profile-file errors are
// operational failures (exit 1), not flag misuse — flags were validated.
func withProfiles(cpuPath, memPath string, f func() int) int {
	if cpuPath != "" {
		cf, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			cf.Close()
			fmt.Fprintf(os.Stderr, "firmbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			cf.Close()
		}()
	}
	code := f()
	if memPath != "" {
		mf, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -memprofile: %v\n", err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			fmt.Fprintf(os.Stderr, "firmbench: -memprofile: %v\n", err)
			return 1
		}
		if err := mf.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -memprofile: %v\n", err)
			return 1
		}
	}
	return code
}

// runBenchSuite executes the internal/perf microbenchmarks (all, or the
// named subset), prints a result table, optionally records a canonical
// BENCH JSON via internal/report, and enforces -bench-allocs thresholds.
// The JSON's ns/op is machine-dependent by nature; allocs/op, bytes/op,
// and the cmp/op operation counts are exact — those carry the perf
// trajectory across PRs and gate CI.
func runBenchSuite(names []string, jsonOut string, maxAllocs map[string]float64, trend bool) int {
	// Thresholds must reference benchmarks this invocation runs, else the
	// gate silently gates nothing — that is flag misuse.
	seen := map[string]bool{}
	for _, n := range names {
		if len(n) > 0 && n[0] == '-' {
			// flag.Parse stops at the first positional argument, so a flag
			// placed after a benchmark name arrives here; exit 2 with the
			// fix instead of "unknown benchmark".
			fmt.Fprintf(os.Stderr, "firmbench: %q is a flag, not a benchmark name — flags must precede benchmark names\n", n)
			return 2
		}
		if seen[n] {
			// A duplicate would run twice and emit duplicate row labels,
			// which report.Diff treats as a structural mismatch.
			fmt.Fprintf(os.Stderr, "firmbench: benchmark %q named more than once\n", n)
			return 2
		}
		seen[n] = true
	}
	run := map[string]bool{}
	if len(names) == 0 {
		for _, bm := range perf.Benchmarks() {
			run[bm.Name] = true
		}
	} else {
		for _, n := range names {
			run[n] = true
		}
	}
	// Sorted so that, with several bad -bench-allocs names, the one
	// reported does not depend on map iteration order.
	gated := make([]string, 0, len(maxAllocs))
	for name := range maxAllocs {
		gated = append(gated, name)
	}
	sort.Strings(gated)
	for _, name := range gated {
		if !run[name] {
			fmt.Fprintf(os.Stderr, "firmbench: -bench-allocs %s: benchmark not selected in this run\n", name)
			return 2
		}
	}

	results, err := perf.Run(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firmbench: %v\n", err)
		return 2
	}

	textOut := os.Stdout
	if jsonOut == "-" {
		textOut = os.Stderr
	}
	tbl := &report.Table{
		Title:  "firmbench microbenchmarks",
		Header: []string{"benchmark", "iters", "ns/op", "allocs/op", "B/op", "extras"},
	}
	rep := report.New("bench")
	for _, r := range results {
		extras := ""
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		row := rep.Row(r.Name).
			Val("ns-op", "ns", r.NsPerOp).
			Val("allocs-op", "allocs", r.AllocsPerOp).
			Val("bytes-op", "B", r.BytesPerOp)
		for _, k := range keys {
			if extras != "" {
				extras += " "
			}
			extras += fmt.Sprintf("%s=%g", k, r.Extra[k])
			row.Val(k, "", r.Extra[k])
		}
		tbl.Add(r.Name, strconv.Itoa(r.Iterations),
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%g", r.AllocsPerOp),
			fmt.Sprintf("%g", r.BytesPerOp),
			extras)
	}
	fmt.Fprint(textOut, tbl.String())

	if jsonOut != "" {
		campaign := &report.Campaign{Tool: "firmbench", Scale: "bench", Seed: perf.Seed}
		campaign.Merge(rep, 0)
		if err := writeCampaign(jsonOut, campaign); err != nil {
			fmt.Fprintf(os.Stderr, "write -json: %v\n", err)
			return 1
		}
	}

	code := 0
	for _, r := range results {
		if limit, ok := maxAllocs[r.Name]; ok && r.AllocsPerOp > limit {
			fmt.Fprintf(os.Stderr, "firmbench: PERF REGRESSION: %s allocs/op = %g exceeds the committed budget %g\n",
				r.Name, r.AllocsPerOp, limit)
			code = 1
		}
	}
	if trend {
		if tc := runBenchTrend(textOut, nil, results); tc > code {
			code = tc
		}
	}
	return code
}

// benchTrendRun is one recorded benchmark run — a committed BENCH_*.json
// campaign, keyed by file base name.
type benchTrendRun struct {
	name string
	vals map[string]map[string]float64 // benchmark label -> metric -> value
}

// loadBenchRun decodes one BENCH_*.json campaign into label->metric maps.
func loadBenchRun(path string) (benchTrendRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchTrendRun{}, err
	}
	defer f.Close()
	c, err := report.Decode(f)
	if err != nil {
		return benchTrendRun{}, fmt.Errorf("%s: %w", path, err)
	}
	run := benchTrendRun{
		name: strings.TrimSuffix(filepath.Base(path), ".json"),
		vals: map[string]map[string]float64{},
	}
	for _, rep := range c.Reports {
		if rep.ID != "bench" {
			continue
		}
		for _, row := range rep.Rows {
			m := map[string]float64{}
			for _, v := range row.Values {
				m[v.Metric] = float64(v.Value)
			}
			run.vals[row.Label] = m
		}
	}
	if len(run.vals) == 0 {
		return benchTrendRun{}, fmt.Errorf("%s: no bench report found (is it a firmbench -bench -json file?)", path)
	}
	return run, nil
}

// sortBenchPaths orders BENCH_*.json files by their numeric PR suffix where
// one exists (BENCH_5 before BENCH_6 before BENCH_12), keeping non-numeric
// names (BENCH_ci) after, alphabetically — so trend columns read
// left-to-right as the repo's history.
func sortBenchPaths(paths []string) {
	num := func(p string) (int, bool) {
		base := strings.TrimSuffix(filepath.Base(p), ".json")
		_, suffix, ok := strings.Cut(base, "_")
		if !ok {
			return 0, false
		}
		n, err := strconv.Atoi(suffix)
		return n, err == nil
	}
	sort.Slice(paths, func(i, j int) bool {
		ni, iok := num(paths[i])
		nj, jok := num(paths[j])
		switch {
		case iok && jok:
			return ni != nj && ni < nj || ni == nj && paths[i] < paths[j]
		case iok != jok:
			return iok // numeric history before ad-hoc names
		default:
			return paths[i] < paths[j]
		}
	})
}

// runBenchTrend tabulates the repo's recorded benchmark runs — each
// committed BENCH_*.json is one column, benchmarks are rows, cells are
// "ns-op/allocs-op" — and, when current is non-nil (-bench -bench-trend),
// appends the in-process run as the final column and gates it: a current
// allocs/op more than 1% above the best (minimum) recorded value for that
// benchmark is a perf regression and fails the run. The band absorbs
// goroutine-scheduling jitter in the concurrent benchmarks
// (rollout-round-overlap flaps 2,994↔2,997); for the steady-state
// benchmarks, whose budgets are single digits, it is exact. ns/op is shown
// for the trajectory but never gated — it is machine-dependent.
func runBenchTrend(w io.Writer, paths []string, current []perf.Result) int {
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob("BENCH_*.json")
		if err != nil || len(paths) == 0 {
			fmt.Fprintln(os.Stderr, "firmbench: -bench-trend: no BENCH_*.json files found (run from the repo root or name the files)")
			return 2
		}
	}
	sortBenchPaths(paths)
	runs := make([]benchTrendRun, 0, len(paths))
	for _, p := range paths {
		run, err := loadBenchRun(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmbench: -bench-trend: %v\n", err)
			return 2
		}
		runs = append(runs, run)
	}

	// Row order: first appearance across the recorded history, then any
	// benchmarks only the current run has.
	var labels []string
	seen := map[string]bool{}
	for _, run := range runs {
		names := make([]string, 0, len(run.vals))
		for l := range run.vals {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
	}
	for _, r := range current {
		if !seen[r.Name] {
			seen[r.Name] = true
			labels = append(labels, r.Name)
		}
	}

	header := []string{"benchmark"}
	for _, run := range runs {
		header = append(header, run.name)
	}
	if current != nil {
		header = append(header, "current")
	}
	cell := func(ns, allocs float64) string {
		return fmt.Sprintf("%.0f/%g", ns, allocs)
	}
	tbl := &report.Table{Title: "bench trend (ns-op/allocs-op per recorded run)", Header: header}
	for _, l := range labels {
		row := []string{l}
		for _, run := range runs {
			if m, ok := run.vals[l]; ok {
				row = append(row, cell(m["ns-op"], m["allocs-op"]))
			} else {
				row = append(row, "-")
			}
		}
		if current != nil {
			c := "-"
			for _, r := range current {
				if r.Name == l {
					c = cell(r.NsPerOp, r.AllocsPerOp)
				}
			}
			row = append(row, c)
		}
		tbl.Add(row...)
	}
	fmt.Fprint(w, tbl.String())

	code := 0
	for _, r := range current {
		best, have := 0.0, false
		for _, run := range runs {
			if m, ok := run.vals[r.Name]; ok {
				if a, ok := m["allocs-op"]; ok && (!have || a < best) {
					best, have = a, true
				}
			}
		}
		if have && r.AllocsPerOp > best*1.01 {
			fmt.Fprintf(os.Stderr, "firmbench: PERF REGRESSION: %s allocs/op = %g exceeds the best recorded run (%g) by more than 1%%\n",
				r.Name, r.AllocsPerOp, best)
			code = 1
		}
	}
	return code
}
