// Command firmbench regenerates the paper's tables and figures on the
// simulated testbed.
//
// Usage:
//
//	firmbench -list
//	firmbench -run fig3 -scale quick -seed 42
//	firmbench -run all -scale full -parallel 8
//	firmbench -run fig11b -scale tiny -parallel 4 -shards 2
//	firmbench -run all -scale tiny -json results.json
//	firmbench -diff [-tol 0.05] [-tol-metric p99=0.1] a.json b.json
//	firmbench -serve :8701
//	firmbench -dist host1:8701,host2:8701 -run all -scale full
//
// Each experiment prints the rows/series of the corresponding paper
// artifact, rendered from its record (internal/report's Text) under a
// header naming the experiment; the README's layout table maps packages
// to paper sections.
//
// -json <path|-> additionally emits the campaign's results as one
// canonical-JSON file (internal/report's record schema): every experiment
// converts into typed rows/series with named metrics and units, floats in
// shortest round-trip form, keys in fixed order. The encoding carries no
// machine-local configuration, so the file is byte-identical across
// -parallel/-shards settings, and diffable across machines. With "-" the
// JSON goes to stdout and the text reports move to stderr.
//
// -diff compares two such files metric-by-metric and exits non-zero on
// mismatches. -tol sets the default relative tolerance (0 = exact);
// -tol-metric name=x overrides it per metric and may repeat. Campaign
// configuration differences (seed, scale) are reported as notes, not
// mismatches, so tolerant cross-seed comparisons are possible.
//
// Fan-out experiments (sweeps, repetitions, per-policy and per-anomaly
// campaigns) execute as independent simulation jobs on a worker pool of
// -parallel workers (default GOMAXPROCS). Job seeds derive from the
// campaign seed and the job's stable key, and results merge in job order,
// so the tables on stdout are byte-identical at any worker count; per-job
// progress goes to stderr.
//
// -parallel is the one execution budget. RL training campaigns (fig1,
// fig10, fig11a, fig11b, headline) parallelize their episode rollouts on
// internal/rollout's actor-learner engine, and sharded cells (-shards)
// run their shard windows on worker goroutines; both borrow whatever the
// job pool leaves spare and hand it back, so inner and outer parallelism
// never oversubscribe. Neither setting changes stdout — only wall-clock.
//
// -serve and -dist split one campaign across machines (internal/dist):
// `firmbench -serve :port` runs a worker, `firmbench -dist host1,host2 -run
// ...` runs the coordinator. The coordinator runs the campaign as a local
// run does and sends every experiment's cells to the workers. Job seeds
// derive from the campaign seed and stable job keys on whichever machine
// executes them, so stdout and the -json file are byte-identical to a
// local run. See the README's "Distributed campaigns" section.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"firm/internal/experiments"
	"firm/internal/report"
	"firm/internal/runner"
	"firm/internal/scenario"
)

// tolMetricFlag collects repeated -tol-metric name=x overrides.
type tolMetricFlag map[string]float64

func (t tolMetricFlag) String() string {
	parts := make([]string, 0, len(t))
	for k, v := range t {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func (t tolMetricFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("expected name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("invalid tolerance in %q: %w", s, err)
	}
	if v < 0 || v != v { // v != v: NaN
		return fmt.Errorf("tolerance must be >= 0, got %q", s)
	}
	t[name] = v
	return nil
}

// Mode names, as error messages print them.
const (
	modeDiff      = "-diff"
	modeServe     = "-serve"
	modeDist      = "-dist"
	modeList      = "-list"
	modeScenarios = "-scenarios"
	modeCampaign  = "campaign (-run)"
)

// A mode is one way to invoke firmbench.
type mode struct {
	name string
	// flags lists the flags the mode accepts; the first one selects it.
	flags []string
	// args is the positional-argument count the mode takes.
	args int
}

// listMode prints the experiment ids; it is also what a bare `firmbench`
// does.
var listMode = mode{modeList, []string{"list"}, 0}

// campaignFlags are what a campaign accepts, local or distributed.
var campaignFlags = []string{"run", "scale", "seed", "parallel", "shards", "quiet", "json", "cpuprofile", "memprofile"}

// modes is the whole command-line grammar: the first mode whose selector
// flag was set is the invocation's mode (listMode when none is), and any
// other explicitly set flag outside the mode's list is a contradiction —
// exit 2 with a usage message rather than one flag silently winning over
// another.
var modes = []mode{
	{modeDiff, []string{"diff", "tol", "tol-metric"}, 2},
	{modeServe, []string{"serve", "parallel", "shards", "quiet"}, 0},
	{modeDist, append([]string{"dist", "dist-timeout"}, campaignFlags...), 0},
	listMode,
	{modeScenarios, []string{"scenarios"}, 0},
	{modeCampaign, campaignFlags, 0},
}

// invocation is the parsed command line, validated as a whole before any
// mode runs.
type invocation struct {
	mode string // one of the mode* names

	run, scale, jsonOut, serve, dist string
	seed                             int64
	parallel, shards                 int
	quiet                            bool
	tol                              float64
	tolMetric                        tolMetricFlag
	cpuprofile, memprofile           string
	distTimeout                      time.Duration
	args                             []string
}

// newFlagSet declares every firmbench flag, bound to the returned
// invocation's fields. The mode selectors that carry no value of their own
// are plain booleans.
func newFlagSet() (*flag.FlagSet, *invocation) {
	inv := &invocation{tolMetric: tolMetricFlag{}}
	fs := flag.NewFlagSet("firmbench", flag.ContinueOnError)
	fs.StringVar(&inv.run, "run", "", "experiment id to run, or 'all'")
	fs.StringVar(&inv.scale, "scale", "quick", "tiny|quick|full")
	fs.Int64Var(&inv.seed, "seed", 42, "random seed")
	fs.Bool("list", false, "list experiment ids")
	fs.Bool("scenarios", false, "list the composable fault-scenario catalog (the faultsweep experiment's cells)")
	fs.IntVar(&inv.parallel, "parallel", 0, "worker budget shared by campaign jobs, RL rollout actors and shard workers (0 = GOMAXPROCS; results are byte-identical at any value)")
	fs.IntVar(&inv.shards, "shards", 0, "engine shards for sharded cells such as gensweep's 10,000-service topology (0 = default 8; results are byte-identical at any shard count)")
	fs.BoolVar(&inv.quiet, "quiet", false, "suppress per-job progress on stderr")
	fs.StringVar(&inv.jsonOut, "json", "", "write campaign results as canonical JSON to this path ('-' = stdout, text reports to stderr)")
	fs.Bool("diff", false, "compare two campaign JSON files: firmbench -diff [-tol x] a.json b.json")
	fs.Float64Var(&inv.tol, "tol", 0, "default relative tolerance for -diff (0 = exact)")
	fs.StringVar(&inv.serve, "serve", "", "run a distributed-campaign worker on this address (host:port)")
	fs.StringVar(&inv.dist, "dist", "", "comma-separated worker addresses; run the campaign as their coordinator")
	fs.DurationVar(&inv.distTimeout, "dist-timeout", 0, "per-job timeout for -dist before a worker counts as failed (0 = none)")
	fs.StringVar(&inv.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
	fs.StringVar(&inv.memprofile, "memprofile", "", "write a pprof heap profile at campaign end to this file")
	fs.Var(inv.tolMetric, "tol-metric", "per-metric tolerance override for -diff, name=x (repeatable; matches row metric names and full series names)")
	return fs, inv
}

// parseArgs parses and validates a command line.
func parseArgs(args []string) (*invocation, error) {
	fs, inv := newFlagSet()
	fs.SetOutput(io.Discard) // main prints the error and its own usage
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	inv.args = fs.Args()
	// Only explicitly set flags count: a default is indistinguishable from
	// intent otherwise (e.g. -scale with -serve).
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	m := listMode
	for _, cand := range modes {
		// A boolean selector spelled -diff=false selects nothing.
		if sel := cand.flags[0]; set[sel] && fs.Lookup(sel).Value.String() != "false" {
			m = cand
			break
		}
	}
	inv.mode = m.name
	var stray []string
	for f := range set {
		if !slices.Contains(m.flags, f) {
			stray = append(stray, "-"+f)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("%s cannot be combined with %s (it accepts: -%s)",
			strings.Join(stray, ", "), m.name, strings.Join(m.flags, " -"))
	}
	if len(inv.args) != m.args {
		return nil, fmt.Errorf("%s takes %d positional argument(s), got %q", m.name, m.args, inv.args)
	}

	if inv.parallel < 0 {
		return nil, fmt.Errorf("-parallel must be >= 0, got %d (0 = GOMAXPROCS)", inv.parallel)
	}
	if inv.shards < 0 {
		return nil, fmt.Errorf("-shards must be >= 0, got %d (0 = default 8)", inv.shards)
	}
	if inv.tol < 0 || inv.tol != inv.tol { // tol != tol: NaN
		return nil, fmt.Errorf("-tol must be >= 0, got %g", inv.tol)
	}
	if inv.distTimeout < 0 {
		return nil, fmt.Errorf("-dist-timeout must be >= 0, got %v (0 = no timeout)", inv.distTimeout)
	}
	if m.name == modeDist {
		if inv.run == "" {
			return nil, fmt.Errorf("-dist needs a campaign: add -run <id|all>")
		}
		for _, h := range splitHosts(inv.dist) {
			if h == "" {
				return nil, fmt.Errorf("-dist has an empty host in %q", inv.dist)
			}
		}
	}
	return inv, nil
}

// splitHosts splits the -dist host list, trimming whitespace but keeping
// empty entries so parseArgs can reject them.
func splitHosts(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func main() {
	inv, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		fs, _ := newFlagSet()
		fs.PrintDefaults()
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "firmbench: %v\n", err)
		fmt.Fprintln(os.Stderr, "usage: firmbench -run <id|all> [-scale tiny|quick|full] [-seed N] [-parallel N] [-shards N] [-json path] [-cpuprofile f] [-memprofile f] |")
		fmt.Fprintln(os.Stderr, "       firmbench -list | firmbench -scenarios |")
		fmt.Fprintln(os.Stderr, "       firmbench -diff [-tol x] [-tol-metric name=x] a.json b.json |")
		fmt.Fprintln(os.Stderr, "       firmbench -serve host:port | firmbench -dist host1,host2 -run <id|all>")
		os.Exit(2)
	}

	// x is the process's one execution value: everything below main that
	// runs simulations receives it (or its pool) as an argument.
	x := experiments.Exec{Pool: runner.NewPool(inv.parallel), Shards: inv.shards}
	if !inv.quiet {
		// Progress goes to stderr: stdout must stay byte-identical across
		// worker counts, and completion order is scheduling-dependent.
		x.Pool.Progress = func(ev runner.Event) {
			status := "done"
			if ev.Err != nil {
				status = "FAILED: " + ev.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s\n", ev.Done, ev.N, ev.Key, status)
		}
	}

	switch inv.mode {
	case modeDiff:
		os.Exit(diffCampaigns(inv.args, report.Tolerances{Default: inv.tol, Metric: inv.tolMetric}))
	case modeServe:
		os.Exit(runWorker(x, inv.serve))
	case modeScenarios:
		fmt.Println("fault scenarios (firmbench -run faultsweep runs each as one campaign cell;")
		fmt.Println("compose your own with scenario.Mode/Sequence/Overlay):")
		for _, line := range scenario.Describe() {
			fmt.Println("  " + line)
		}
		return
	}

	ids := experiments.IDs()
	if inv.mode == modeList {
		fmt.Println("experiments:")
		for _, id := range ids {
			fmt.Printf("  %-10s  %s\n", id, experiments.Title(id))
		}
		fmt.Println("\nrun with: firmbench -run <id> [-scale quick|full] [-seed N]")
		return
	}

	sc, err := experiments.ScaleByName(inv.scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", inv.scale)
		os.Exit(2)
	}

	selected := ids
	if inv.run != "all" {
		if _, ok := experiments.Get(inv.run); !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", inv.run)
			os.Exit(2)
		}
		selected = []string{inv.run}
	}

	os.Exit(withProfiles(inv.cpuprofile, inv.memprofile, func() int {
		if inv.mode == modeDist {
			return runDistributed(x, splitHosts(inv.dist), selected, sc, inv.seed, inv.jsonOut, inv.distTimeout, inv.quiet)
		}
		return runCampaign(x, selected, sc, inv.seed, inv.jsonOut)
	}))
}

// runCampaign executes the selected experiments locally and returns the
// process exit code. (A function so -cpuprofile/-memprofile can wrap it:
// profile writers must flush before exit.)
func runCampaign(x experiments.Exec, selected []string, sc experiments.Scale, seed int64, jsonOut string) int {
	// With -json to stdout the text reports move to stderr so the JSON
	// document stays parseable.
	textOut := io.Writer(os.Stdout)
	if jsonOut == "-" {
		textOut = os.Stderr
	}

	campaign := &report.Campaign{Tool: "firmbench", Scale: sc.Name, Seed: seed}
	for _, id := range selected {
		start := time.Now()
		fn, _ := experiments.Get(id)
		res, err := fn(x, sc, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			return 1
		}
		rep := res.Report()
		rep.Scale = sc.Name
		rep.Seed = seed
		campaign.Merge(rep)
		fmt.Fprintf(textOut, "=== %s (scale=%s seed=%d): %s ===\n%s\n", id, sc.Name, seed, experiments.Title(id), rep.Text())
		// Wall-clock goes to stderr with the progress feed: stdout carries
		// only the experiment artifact, byte-identical at any -parallel.
		fmt.Fprintf(os.Stderr, "(%s in %.1fs)\n", id, time.Since(start).Seconds())
	}

	if jsonOut != "" {
		if err := writeCampaign(jsonOut, campaign); err != nil {
			fmt.Fprintf(os.Stderr, "write -json: %v\n", err)
			return 1
		}
	}
	return 0
}

func writeCampaign(path string, c *report.Campaign) error {
	if path == "-" {
		return report.Encode(os.Stdout, c)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Encode(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// diffCampaigns loads two campaign files, diffs them, prints the mismatch
// report, and returns the process exit code.
func diffCampaigns(paths []string, tol report.Tolerances) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: firmbench -diff [-tol x] [-tol-metric name=x] a.json b.json")
		return 2
	}
	load := func(path string) (*report.Campaign, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return report.Decode(f)
	}
	a, err := load(paths[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	b, err := load(paths[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	d := report.Diff(a, b, tol)
	fmt.Print(d.Format())
	if len(d.Mismatches) > 0 {
		return 1
	}
	return 0
}
