package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestValidateRejectsContradictoryInvocations(t *testing.T) {
	bad := map[string]string{
		"diff-one-arg":              "-diff a.json",
		"diff-three-args":           "-diff a b c",
		"diff-with-run":             "-diff -run fig3 a b",
		"diff-with-json":            "-diff -json out.json a b",
		"diff-with-serve":           "-diff -serve :8701 a b",
		"diff-with-dist":            "-diff -dist h:1 a b",
		"diff-with-scenarios":       "-diff -scenarios a b",
		"negative-tol":              "-diff -tol -0.1 a b",
		"nan-tol":                   "-diff -tol NaN a b",
		"bad-tol-metric":            "-diff -tol-metric p99=-1 a b",
		"tol-without-diff":          "-run fig3 -tol 0.5",
		"tol-metric-without-diff":   "-run fig3 -tol-metric p99=0.1",
		"stray-args":                "-run fig3 a.json",
		"serve-with-run":            "-serve :8701 -run fig3",
		"serve-with-json":           "-serve :8701 -json o.json",
		"serve-with-dist":           "-serve :8701 -dist h:1",
		"serve-with-list":           "-serve :8701 -list",
		"serve-with-scale":          "-serve :8701 -scale tiny",
		"dist-without-run":          "-dist h1:1,h2:1",
		"dist-with-list":            "-dist h1:1 -run all -list",
		"dist-empty-host":           "-dist h1:1,,h2:1 -run all",
		"negative-dist-timeout":     "-dist h1:1 -run all -dist-timeout -1s",
		"dist-timeout-without-dist": "-run fig3 -dist-timeout 1m",
		"diff-with-dist-timeout":    "-diff -dist-timeout 1m a b",
		"cpuprofile-without-target": "-cpuprofile cpu.pprof",
		"memprofile-without-target": "-memprofile mem.pprof",
		"cpuprofile-with-serve":     "-serve :8701 -cpuprofile cpu.pprof",
		"cpuprofile-with-diff":      "-diff -cpuprofile cpu.pprof a b",
		"list-with-run":             "-list -run fig3",
		"list-with-args":            "-list fig3",
		"scale-without-run":         "-scale tiny",
		// -scenarios used to be missing from every exclusion list, so these
		// two silently ignored one of their flags.
		"scenarios-with-run":  "-scenarios -run fig3",
		"scenarios-with-diff": "-scenarios -diff a b",
		"false-selector":      "-diff=false",
		"negative-parallel":   "-run table6 -scale tiny -parallel -3",
		"negative-shards":     "-run table6 -scale tiny -shards -2",
		"negative-serve-pool": "-serve :8701 -parallel -1",
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
		"cpuprofile", "diff", "dist", "dist-timeout", "json", "list", "memprofile",
		"parallel", "quiet", "run", "scale", "scenarios", "seed", "serve", "shards",
		"tol", "tol-metric",
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
	// The deleted microbenchmark flags are unknown to the parser itself (main
	// exits 2 on any parse error), not merely rejected by the mode table.
	for _, gone := range []string{"-bench", "-bench-allocs=core-tick=2", "-bench-trend"} {
		_, err := parseArgs([]string{gone})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", gone, err)
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
