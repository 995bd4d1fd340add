// Command benchmark is the repository's macro benchmark: four fixed
// workloads driven through the public API of the simulator's layers,
// reporting end-to-end host-time, memory and simulated-plane metrics with
// tracing off, and per-layer metrics from one separately traced
// repetition. README.md in this directory describes the workloads, the
// metrics and which layer metric is expected to move which end-to-end one.
//
//	go run ./benchmark                              # all four workloads, each in its own process
//	go run ./benchmark -workload mesh-1k            # one workload, end-to-end metrics
//	go run ./benchmark -workload mesh-1k -trace 1   # ... plus the traced run
//	go run ./benchmark -selfcheck                   # two full sets must agree
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// summary is the full-set output.
type summary struct {
	Provenance provenance `json:"provenance"`
	Workloads  []*record  `json:"workloads"`
	Selfcheck  []checkRow `json:"selfcheck,omitempty"`
	Claim      *struct{}  `json:"claim"` // this benchmark measures; it claims no gain
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this workload only, in this process (default: all four, one process each)")
	seed := fs.Int64("seed", 42, "the only input that shapes the generated workloads")
	seconds := fs.Float64("seconds", 15, "how long the timed repetitions of a workload run (never fewer than 5 repetitions)")
	trace := fs.Int("trace", 0, "with -workload: 1 adds the serial baseline, the traced repetition and the probes, and prints the per-layer metrics")
	jsonPath := fs.String("json", "", "write the full record as JSON to this `path` (- for standard output)")
	traceDir := fs.String("trace-dir", ".bench_trace", "where the traced run writes its span, Chrome-trace and CPU-profile files")
	smoke := fs.Bool("smoke", false, "tiny durations and 2 repetitions: checks the plumbing, measures nothing")
	selfcheck := fs.Bool("selfcheck", false, "run the full set twice and fail unless the two agree within each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) || (*selfcheck && *workload != "") {
		fmt.Fprintln(stderr, "benchmark: bad invocation")
		fs.Usage()
		return 2
	}

	// Two cores whatever the machine has, so numbers from different hosts
	// share a shape; the parallel workloads use exactly two workers.
	runtime.GOMAXPROCS(2)
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *smoke, traceDir: *traceDir, log: stderr}
	if *workload != "" {
		return runOne(*workload, cfg, *jsonPath, stdout, stderr)
	}

	sum := summary{Provenance: readProvenance(*seed)}
	var err error
	if sum.Workloads, err = runSet(cfg, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRecords(stderr, sum.Workloads)
	ok := allCorrect(sum.Workloads)
	if *selfcheck {
		second, err := runSet(cfg, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		var agree bool
		sum.Selfcheck, agree = compareSets(sum.Workloads, second)
		printCheck(stderr, sum.Selfcheck)
		ok = ok && agree && allCorrect(second)
	}
	if err := writeJSON(*jsonPath, stdout, sum); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// resultLine is the last line of standard output in single-workload mode.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process and prints its result line:
// the host metrics untraced, the per-layer and plane metrics traced.
func runOne(name string, cfg runConfig, jsonPath string, stdout, stderr io.Writer) int {
	var c *cell
	for i := range cells {
		if cells[i].name == name {
			c = &cells[i]
		}
	}
	if c == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	rec, err := measure(*c, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printRecords(stderr, []*record{rec})
	if jsonPath != "" {
		if err := writeJSON(jsonPath, stdout, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line := resultLine{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]lineMetric{}}
	if cfg.traced {
		for _, m := range planeMetrics {
			s := rec.EndToEnd[m.Name] // zero where the metric does not apply
			line.Metrics[m.Name] = lineMetric{s.Value, m.Unit}
		}
		for name, s := range rec.PerLayer {
			line.Metrics[name] = lineMetric{s.Value, s.Unit}
		}
	} else {
		for _, m := range hostMetrics {
			line.Metrics[m.Name] = lineMetric{rec.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// runSet measures every workload, each in a process of its own so that
// heap state and peak RSS do not leak from one into the next. The children
// run traced: a traced run is the untraced measurement plus the per-layer
// pass.
func runSet(cfg runConfig, stderr io.Writer) ([]*record, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return nil, err
	}
	var recs []*record
	for _, c := range cells {
		path := filepath.Join(cfg.traceDir, c.name+".record.json")
		args := []string{
			"-workload", c.name, "-trace", "1", "-json", path, "-trace-dir", cfg.traceDir,
			"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
		}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = stderr
		// A child that exits 1 after writing its record had failed
		// repetitions; the record says so, and the set goes on.
		var exit *exec.ExitError
		if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%s left no record: %w", c.name, err)
		}
		rec := new(record)
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := os.Remove(path); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func allCorrect(recs []*record) bool {
	for _, r := range recs {
		if r.Failed > 0 {
			return false
		}
	}
	return true
}

// checkRow is one line of the -selfcheck table.
type checkRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Bound    float64 `json:"bound"` // 0 = must be bit-equal
	OK       bool    `json:"ok"`
}

// compareSets checks two sets of one commit against each other: every
// end-to-end metric within its own bound, the exact ones and the count-type
// per-layer metrics bit for bit.
func compareSets(first, second []*record) ([]checkRow, bool) {
	var rows []checkRow
	agree := true
	for i, a := range first {
		b := second[i]
		for _, m := range endToEndMetrics() {
			if !m.definedOn(a.Workload) {
				continue
			}
			x, y := a.EndToEnd[m.Name].Value, b.EndToEnd[m.Name].Value
			row := checkRow{Workload: a.Workload, Metric: m.Name, First: x, Second: y, Bound: m.Bound}
			if m.Exact {
				row.OK = math.Float64bits(x) == math.Float64bits(y)
			} else {
				row.OK = math.Abs(x-y) <= m.Bound*math.Min(math.Abs(x), math.Abs(y))
			}
			rows = append(rows, row)
			agree = agree && row.OK
		}
		for _, name := range exactLayerMetrics {
			x, y := a.PerLayer[name].Value, b.PerLayer[name].Value
			row := checkRow{Workload: a.Workload, Metric: name, First: x, Second: y, OK: math.Float64bits(x) == math.Float64bits(y)}
			rows = append(rows, row)
			agree = agree && row.OK
		}
	}
	return rows, agree
}

func printCheck(w io.Writer, rows []checkRow) {
	fmt.Fprintf(w, "\nselfcheck: two sets of one commit\n%-18s %-32s %14s %14s %8s  %s\n", "workload", "metric", "first", "second", "bound", "")
	for _, r := range rows {
		verdict, bound := "ok", "exact"
		if !r.OK {
			verdict = "DISAGREE"
		}
		if r.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*r.Bound)
		}
		fmt.Fprintf(w, "%-18s %-32s %14.6g %14.6g %8s  %s\n", r.Workload, r.Metric, r.First, r.Second, bound, verdict)
	}
}

// printRecords prints every metric by name with its unit.
func printRecords(w io.Writer, recs []*record) {
	for _, r := range recs {
		fmt.Fprintf(w, "\n%s  seed %d  repetitions %v  failed %d/%d  fingerprint %s\n", r.Workload, r.Seed, r.Reps, r.Failed, r.Attempted, r.Fingerprint)
		row := func(name string, s stat) {
			fmt.Fprintf(w, "  %-32s %14.6g %-8s", name, s.Value, s.Unit)
			if s.N > 1 {
				fmt.Fprintf(w, " median %.6g iqr %.3g n %d", s.Median, s.IQR, s.N)
			}
			fmt.Fprintln(w)
		}
		for _, m := range endToEndMetrics() {
			if s, ok := r.EndToEnd[m.Name]; ok {
				row(m.Name, s)
			}
		}
		if r.PerLayer != nil {
			for _, m := range layerMetrics {
				row(m.Name, r.PerLayer[m.Name])
			}
		}
	}
}

// writeJSON writes v indented to path ("-": standard output, "": nowhere).
func writeJSON(path string, stdout io.Writer, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
