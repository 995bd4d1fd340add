package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestFastestThree(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{2.77, 1.96, 2.13, 2.02, 2.47, 1.95}, (1.95 + 1.96 + 2.02) / 3},
		{[]float64{3, 1}, 2},
		{[]float64{5}, 5},
	} {
		if got := fastestThree(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("fastestThree(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{4, 1, 3, 2, 5}
	if m, q := median(xs), iqr(xs); m != 3 || q != 2 {
		t.Errorf("median, iqr of %v = %v, %v, want 3, 2", xs, m, q)
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"firm/internal/sim.(*eventHeap).pop", "firm/internal/sim.(*Engine).Step", "main.firmLoop"}, "sim.cpu_share"},
		{[]string{"firm/internal/cpath.Extract", "firm/internal/core.(*Controller).tick"}, "detect.cpu_share"},
		{[]string{"firm/internal/nn.forwardRowAVX.abi0", "firm/internal/rl.(*Agent).TrainStep"}, "rl.cpu_share"},
		{[]string{"firm/internal/telemetry.(*ring[go.shape.struct { At firm/internal/sim.Time }]).add"}, "telemetry.cpu_share"},
		{[]string{"firm/internal/scenario.(*Player).step"}, "injector.cpu_share"},
		{[]string{"firm/internal/deploy.(*Module).Apply"}, "harness.cpu_share"},
		{[]string{"firm/internal/runner.Map[go.shape.int]"}, "other.cpu_share"},
		// Allocation is charged to the runtime whichever layer asked.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "firm/internal/app.(*App).exec"}, "runtime.malloc_cpu_share"},
		// A mutator drafted into marking is collector work, even under mallocgc.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "firm/internal/trace.(*Coordinator).Emit"}, "runtime.gc_cpu_share"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc_cpu_share"},
		{[]string{"runtime.(*mspan).sweep", "runtime.bgsweep"}, "runtime.gc_cpu_share"},
		{[]string{"runtime.memmove", "firm/internal/tracedb.(*Store).SelectAppend"}, "runtime.other_cpu_share"},
		{[]string{"internal/runtime/atomic.(*Uint32).Load", "runtime.schedule"}, "runtime.other_cpu_share"},
		{[]string{"sort.insertionSortCmpFunc[go.shape.float64]", "firm/internal/stats.Percentile"}, "other.cpu_share"},
		{[]string{"math/rand.(*Rand).Float64", "firm/internal/workload.(*Generator).fire"}, "other.cpu_share"},
		{nil, "other.cpu_share"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%q) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestCPUSharesFromProfile feeds cpuShares a hand-encoded profile.proto:
// three samples of 3, 1 and 4 hits, one of them through an inlined frame.
func TestCPUSharesFromProfile(t *testing.T) {
	field := func(dst []byte, num int, payload []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(payload)))
		return append(dst, payload...)
	}
	varint := func(dst []byte, num int, v uint64) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3)
		return binary.AppendUvarint(dst, v)
	}
	packed := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	strs := []string{"", "firm/internal/sim.(*Engine).Step", "runtime.mallocgc", "firm/internal/app.(*App).exec", "firm/internal/cluster.(*Container).start"}
	var prof []byte
	// Functions 1..4 named by strs[1..4]; locations 1..3, location 3
	// holding cluster.start inlined into app.exec.
	for id := uint64(1); id <= 4; id++ {
		prof = field(prof, 5, varint(varint(nil, 1, id), 2, id))
	}
	line := func(fn uint64) []byte { return varint(nil, 1, fn) }
	prof = field(prof, 4, field(varint(nil, 1, 1), 4, line(1)))
	prof = field(prof, 4, field(varint(nil, 1, 2), 4, line(2)))
	prof = field(prof, 4, field(field(varint(nil, 1, 3), 4, line(4)), 4, line(3)))
	sample := func(count uint64, locs ...uint64) []byte {
		return field(field(nil, 1, packed(locs...)), 2, packed(count, count*10_000_000))
	}
	prof = field(prof, 2, sample(3, 1))    // sim
	prof = field(prof, 2, sample(1, 2, 3)) // mallocgc under cluster/app
	prof = field(prof, 2, sample(4, 3, 1)) // cluster (inlined leaf) under sim
	for _, s := range strs {
		prof = field(prof, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	shares, samples, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples != 8 {
		t.Errorf("samples = %d, want 8", samples)
	}
	want := map[string]float64{"sim.cpu_share": 3.0 / 8, "runtime.malloc_cpu_share": 1.0 / 8, "cluster.cpu_share": 4.0 / 8}
	var sum float64
	for name, got := range shares {
		sum += got
		if got != want[name] {
			t.Errorf("%s = %v, want %v", name, got, want[name])
		}
	}
	if len(shares) != len(shareLayers)+4 || math.Abs(sum-1) > 1e-12 {
		t.Errorf("%d buckets summing to %v, want %d summing to 1", len(shares), sum, len(shareLayers)+4)
	}
	if _, _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("cpuShares accepted garbage")
	}
}

func TestParseCPUInfo(t *testing.T) {
	model, avx := parseCPUInfo("processor\t: 0\nmodel name\t: Some CPU @ 2.0GHz\nflags\t\t: fpu sse avx2 avx\n\nprocessor\t: 1\nmodel name\t: Other\nflags\t: fpu\n")
	if model != "Some CPU @ 2.0GHz" || !avx {
		t.Errorf("got %q, %v", model, avx)
	}
	if model, avx := parseCPUInfo("flags\t: fpu avx2\n"); model != "unknown" || avx {
		t.Errorf("got %q, %v", model, avx)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONAgrees checks BENCHMARK.json against what the program
// emits: the same workloads, the host metrics as end_to_end with their
// bounds, and the plane and layer metrics as per_layer — each name valid,
// each used once.
func TestBenchmarkJSONAgrees(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "benchmark" || decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", decl.Paths, decl.RunSeconds)
	}

	seen := map[string]bool{}
	check := func(name, unit, better string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is invalid or repeated", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: invalid unit %q", name, unit)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", name, better)
		}
	}

	if len(decl.Workloads) != len(cells) {
		t.Fatalf("%d workloads declared, %d emitted", len(decl.Workloads), len(cells))
	}
	for i, c := range cells {
		check(c.name, "", "")
		if w := decl.Workloads[i]; w.Name != c.name || w.Why != c.why {
			t.Errorf("workload %d declared as %+v, emitted as %s: %s", i, w, c.name, c.why)
		}
		if len(c.why) > 200 || strings.Contains(c.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", c.name)
		}
	}

	if len(decl.EndToEnd) != len(hostMetrics) {
		t.Fatalf("%d end_to_end metrics declared, %d emitted", len(decl.EndToEnd), len(hostMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range hostMetrics {
		check(m.Name, m.Unit, m.Better)
		d := decl.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %d declared as %+v, emitted as %+v", i, d, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Exact || m.Workloads != nil {
			t.Errorf("%s: a host metric is bounded, inexact and defined everywhere", m.Name)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	var emitted []metricDef
	for _, m := range planeMetrics {
		emitted = append(emitted, m.metricDef)
		for _, w := range m.Workloads {
			if !seen[w] {
				t.Errorf("%s: unknown workload %q", m.Name, w)
			}
		}
	}
	emitted = append(emitted, layerMetrics...)
	if len(decl.PerLayer) != len(emitted) {
		t.Fatalf("%d per_layer metrics declared, %d emitted", len(decl.PerLayer), len(emitted))
	}
	for i, m := range emitted {
		check(m.Name, m.Unit, m.Better)
		if d := decl.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer %d declared as %+v, emitted as %+v", i, d, m)
		}
	}
	for _, name := range exactLayerMetrics {
		if !seen[name] {
			t.Errorf("exact metric %s is not a layer metric", name)
		}
	}
}

// TestSmoke runs every workload at -smoke size through the whole
// measurement — timed, setup and serial repetitions, the traced repetition
// and the probes — and checks the correctness gate (repetition, traced and
// 1-shard fingerprints all equal), that each metric is emitted exactly
// where it is declared, and the files the traced run leaves.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, c := range cells {
		rec, err := measure(c, runConfig{seed: 7, smoke: true, traced: true, traceDir: dir, log: testLog{t}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rec.Failed != 0 || rec.Attempted < 4 {
			t.Errorf("%s: %d of %d repetitions failed", c.name, rec.Failed, rec.Attempted)
		}
		for _, m := range hostMetrics {
			if s := rec.EndToEnd[m.Name]; !(s.Value > 0) || s.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", c.name, m.Name, s, m.Unit)
			}
		}
		for _, m := range planeMetrics {
			if _, ok := rec.EndToEnd[m.Name]; ok != m.definedOn(c.name) {
				t.Errorf("%s: %s emitted = %v, declared = %v", c.name, m.Name, ok, m.definedOn(c.name))
			}
		}
		if len(rec.EndToEnd) > len(hostMetrics)+len(planeMetrics) {
			t.Errorf("%s: undeclared end-to-end metrics in %v", c.name, rec.EndToEnd)
		}
		var shareSum float64
		for _, m := range layerMetrics {
			s, ok := rec.PerLayer[m.Name]
			if !ok || s.Unit != m.Unit || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v)", c.name, m.Name, s, ok)
			}
			if strings.HasSuffix(m.Name, "cpu_share") {
				shareSum += s.Value
			}
		}
		// A smoke simulate section can be too short for a single sample.
		if shareSum != 0 && math.Abs(shareSum-1) > 1e-9 {
			t.Errorf("%s: CPU shares sum to %v", c.name, shareSum)
		}
		if len(rec.PerLayer) != len(layerMetrics) {
			t.Errorf("%s: %d per-layer metrics, want %d", c.name, len(rec.PerLayer), len(layerMetrics))
		}
		for _, f := range []string{".spans.jsonl", ".trace.json", ".cpu.pprof"} {
			if st, err := os.Stat(filepath.Join(dir, c.name+f)); err != nil || st.Size() == 0 {
				t.Errorf("%s: traced run left no %s (%v)", c.name, f, err)
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestResultLine checks the contract of single-workload mode: the last
// line of standard output is one JSON object with exactly the keys
// correct, attempted, failed and metrics, carrying exactly the declared
// end-to-end metrics untraced.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "mesh-1k", "-smoke", "-seed", "3", "-seconds", "1", "-trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("result line %s", lines[len(lines)-1])
	}
	var metrics map[string]lineMetric
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(hostMetrics) {
		t.Errorf("%d metrics, want %d", len(metrics), len(hostMetrics))
	}
	for _, m := range hostMetrics {
		if got := metrics[m.Name]; !(got.Value > 0) || got.Unit != m.Unit {
			t.Errorf("%s = %+v", m.Name, got)
		}
	}

	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-selfcheck", "-workload", "mesh-1k"}, {"stray"}} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

func TestCompareSets(t *testing.T) {
	set := func(wall, p99, events float64) []*record {
		return []*record{{
			Workload: "mesh-1k",
			EndToEnd: map[string]stat{"wall_s": {Value: wall}, "sim_p99_ms": {Value: p99}},
			PerLayer: map[string]stat{"sim.events": {Value: events}},
		}}
	}
	bad := func(rows []checkRow) (names []string) {
		for _, r := range rows {
			if !r.OK {
				names = append(names, r.Metric)
			}
		}
		return names
	}
	if rows, ok := compareSets(set(2.0, 325.7, 1e6), set(2.1, 325.7, 1e6)); !ok {
		t.Errorf("sets within bounds disagree on %v", bad(rows))
	}
	rows, ok := compareSets(set(2.0, 325.7, 1e6), set(2.6, 325.70000001, 1e6+1))
	if got := strings.Join(bad(rows), " "); ok || got != "wall_s sim_p99_ms sim.events" {
		t.Errorf("disagreements = %q (ok %v), want wall_s sim_p99_ms sim.events", got, ok)
	}
}
