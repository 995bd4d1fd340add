package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// lane is one configuration repeated within a series.
type lane struct {
	kind  string
	opts  cellOpts
	floor int         // repetitions it gets at least
	ok    []repResult // the ones that did not fail
}

// repPlan is how many repetitions of each kind a workload gets.
type repPlan struct {
	warmup int // untimed, first
	timed  int // floor on the main configuration; -seconds adds more
	serial int // the 1 x 1 baseline of a parallel workload (traced runs)
	setup  int // floor on set-up-only repetitions; setupFor adds more
	// setupFor is how long set-up is repeated for: it is short next to a
	// repetition, and setup_s must be steady enough to show work moved
	// into it.
	setupFor time.Duration
}

var (
	fullPlan  = repPlan{warmup: 1, timed: 5, serial: 5, setup: 5, setupFor: 3 * time.Second}
	smokePlan = repPlan{timed: 2, serial: 1, setup: 1}
)

// stat is one reported metric. Value is what the metric is defined as
// (fastest-three mean for host times, median for memory, the exact number
// for simulated quantities); Median, IQR and N describe the repetitions it
// was taken from, where there were several.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median,omitempty"`
	IQR    float64 `json:"iqr,omitempty"`
	N      int     `json:"n,omitempty"`
}

// record is one workload's result.
type record struct {
	Workload    string          `json:"workload"`
	Seed        int64           `json:"seed"`
	Reps        map[string]int  `json:"repetitions"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	Fingerprint string          `json:"fingerprint"`
	EndToEnd    map[string]stat `json:"end_to_end"`
	PerLayer    map[string]stat `json:"per_layer,omitempty"`
}

// runConfig is what the flags select for one workload.
type runConfig struct {
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	traceDir string
	log      io.Writer
}

// repResult is one repetition's measurements.
type repResult struct {
	setup, simulate, collect float64 // host seconds
	out                      outcome
	allocMB                  float64
	mallocs                  uint64
	gcCycles                 uint32
	gcPauseMS                float64
	cpu, elapsed             float64 // process CPU and wall seconds over the repetition
	rec                      *recorder
}

func (r repResult) wall() float64 { return r.setup + r.simulate + r.collect }

// runner executes repetitions of one workload and keeps the correctness
// tally behind failed_frac.
type runner struct {
	c         cell
	cfg       runConfig
	attempted int
	failed    int
	// ref is the first repetition's fingerprint, which every later one
	// must equal; set-up repetitions simulate nothing (or, on rl-train, a
	// shorter campaign) and have a reference of their own.
	ref map[bool]uint64
}

// rep runs one repetition. ok is false when it failed: it returned an
// error, panicked, broke an invariant, or its simulated fingerprint
// differs from the reference.
func (r *runner) rep(label string, o cellOpts, cpuProfile io.Writer) (res repResult, ok bool) {
	o.seed, o.smoke = r.cfg.seed, r.cfg.smoke
	r.attempted++
	rec := newRecorder(r.c.name, label)
	rec.cpuProfile = cpuProfile
	runtime.GC() // every repetition starts from the same heap state
	var before, after runtime.MemStats
	var ruBefore, ruAfter syscall.Rusage
	runtime.ReadMemStats(&before)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruBefore) // cannot fail for RUSAGE_SELF and a valid pointer
	start := time.Now()
	out, err := runCell(r.c, o, rec)
	elapsed := time.Since(start).Seconds()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ruAfter)
	runtime.ReadMemStats(&after)
	if err == nil {
		want, seen := r.ref[o.setupOnly]
		if !seen {
			r.ref[o.setupOnly] = out.fingerprint
		} else if out.fingerprint != want {
			err = fmt.Errorf("simulated fingerprint %016x differs from the first repetition's %016x", out.fingerprint, want)
		}
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.cfg.log, "%s %s: FAILED: %v\n", r.c.name, label, err)
		return repResult{}, false
	}
	res = repResult{
		setup: rec.seconds(spanSetup), simulate: rec.seconds(spanSimulate), collect: rec.seconds(spanCollect),
		out:       out,
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		mallocs:   after.Mallocs - before.Mallocs,
		gcCycles:  after.NumGC - before.NumGC,
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		cpu:       cpuSeconds(ruAfter) - cpuSeconds(ruBefore),
		elapsed:   elapsed,
		rec:       rec,
	}
	return res, true
}

// runCell calls the workload, turning a panic into an error so that one
// broken repetition is counted instead of ending the run.
func runCell(c cell, o cellOpts, rec *recorder) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return c.run(o, rec)
}

// measure runs one workload: a warm-up, timed repetitions for cfg.seconds
// (at least the plan's floor), set-up repetitions, and — when traced — the
// serial baseline, one traced repetition and the per-call probes.
func measure(c cell, cfg runConfig) (*record, error) {
	r := &runner{c: c, cfg: cfg, ref: map[bool]uint64{}}
	plan := fullPlan
	if cfg.smoke {
		plan, cfg.seconds = smokePlan, 0
	}
	reps := map[string]int{}
	// series runs the lanes' repetitions in turn until each has its floor
	// and, for the first lane, until has passed. Taking turns lets a slow
	// minute of a shared machine fall on every lane alike, which is what
	// keeps a ratio between two lanes (par_speedup) honest.
	series := func(until time.Duration, lanes ...*lane) {
		start := time.Now()
		for i, ran := 0, true; ran; i++ {
			ran = false
			for j, l := range lanes {
				if i >= l.floor && (j > 0 || time.Since(start) >= until) {
					continue
				}
				ran = true
				reps[l.kind]++
				if res, ok := r.rep(fmt.Sprintf("%s-%d", l.kind, i), l.opts, nil); ok {
					l.ok = append(l.ok, res)
				}
			}
		}
		for _, l := range lanes {
			if reps[l.kind] > 0 {
				fmt.Fprintf(cfg.log, "%s %s: %d of %d repetitions ok\n", c.name, l.kind, len(l.ok), reps[l.kind])
			}
		}
	}

	series(0, &lane{kind: "warmup", floor: plan.warmup})
	timedLane := &lane{kind: "timed", floor: plan.timed}
	serialLane := &lane{kind: "serial", floor: plan.serial, opts: cellOpts{serial: true}}
	lanes := []*lane{timedLane}
	if cfg.traced && c.parallel {
		lanes = append(lanes, serialLane)
	}
	series(time.Duration(cfg.seconds*float64(time.Second)), lanes...)
	setupLane := &lane{kind: "setup", floor: plan.setup, opts: cellOpts{setupOnly: true}}
	series(plan.setupFor, setupLane)
	timed, serial, setups := timedLane.ok, serialLane.ok, setupLane.ok
	if len(timed) == 0 || len(setups) == 0 {
		return nil, fmt.Errorf("%s: every timed or every set-up repetition failed", c.name)
	}

	walls := pick(timed, repResult.wall)
	sims := pick(timed, func(x repResult) float64 { return x.simulate })
	simSeconds := timed[0].out.simSeconds
	speeds := pick(timed, func(x repResult) float64 { return simSeconds / x.simulate })
	rec := &record{
		Workload: c.name, Seed: cfg.seed, Reps: reps,
		Fingerprint: fmt.Sprintf("%016x", r.ref[false]),
		EndToEnd: map[string]stat{
			"setup_s":      hostTime(pick(setups, func(x repResult) float64 { return x.setup }), "s"),
			"wall_s":       hostTime(walls, "s"),
			"sim_speed":    {Value: simSeconds / fastestThree(sims), Unit: "sim-s/s", Median: median(speeds), IQR: iqr(speeds), N: len(speeds)},
			"alloc_mb":     middle(pick(timed, func(x repResult) float64 { return x.allocMB }), "MB"),
			"live_heap_mb": middle(pick(timed, func(x repResult) float64 { return x.out.liveHeapMB }), "MB"),
		},
	}
	for name, v := range timed[0].out.plane {
		rec.EndToEnd[name] = stat{Value: v, Unit: planeMetric(name).Unit}
	}

	if cfg.traced {
		if len(serial) > 0 {
			s := fastestThree(pick(serial, repResult.wall))
			rec.EndToEnd["par_speedup"] = stat{Value: s / rec.EndToEnd["wall_s"].Value, Unit: "x", N: len(serial)}
		}
		reps["traced"]++
		var err error
		if rec.PerLayer, err = r.tracedPass(timed, rec.EndToEnd["alloc_mb"].Value); err != nil {
			return nil, err
		}
	}
	// failed_frac last: it counts every repetition above.
	rec.Attempted, rec.Failed = r.attempted, r.failed
	rec.EndToEnd["failed_frac"] = stat{Value: float64(r.failed) / float64(r.attempted), Unit: "ratio", N: r.attempted}
	return rec, nil
}

// tracedPass makes the traced repetition — sliced, profiled, its spans
// written to the trace directory — and the per-call probes, and assembles
// the per-layer metrics; timed are the untraced repetitions the runtime
// rows and the tracing overhead are taken against.
func (r *runner) tracedPass(timed []repResult, allocMB float64) (map[string]stat, error) {
	name, dir := r.c.name, r.cfg.traceDir
	var profile bytes.Buffer
	traced, ok := r.rep("traced", cellOpts{traced: true}, &profile)
	if !ok {
		return nil, fmt.Errorf("%s: the traced repetition failed", name)
	}
	if err := traced.rec.writeFiles(dir); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), profile.Bytes(), 0o644); err != nil {
		return nil, err
	}
	shares, samples, err := cpuShares(profile.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%s: CPU profile: %w", name, err)
	}
	fmt.Fprintf(r.cfg.log, "%s traced: %d CPU samples\n", name, samples)
	probes, err := runProbes(r.cfg.smoke)
	if err != nil {
		return nil, err
	}

	layer := map[string]float64{}
	for _, m := range []map[string]float64{shares, traced.out.layer, probes} {
		for k, v := range m {
			layer[k] = v
		}
	}
	for _, span := range phaseSpans {
		layer[span+"_ms"] = traced.rec.seconds(span) * 1e3
	}
	if events := layer["sim.events"]; events > 0 {
		layer["runtime.allocs_per_event"] = median(pick(timed, func(x repResult) float64 { return float64(x.mallocs) })) / events
		layer["runtime.bytes_per_event"] = allocMB * 1e6 / events
	}
	layer["runtime.gc_cycles"] = median(pick(timed, func(x repResult) float64 { return float64(x.gcCycles) }))
	layer["runtime.gc_pause_ms"] = median(pick(timed, func(x repResult) float64 { return x.gcPauseMS }))
	layer["runtime.peak_rss_mb"] = peakRSSMB()
	layer["runtime.cpu_over_wall"] = sum(pick(timed, func(x repResult) float64 { return x.cpu })) / sum(pick(timed, func(x repResult) float64 { return x.elapsed }))
	untraced := fastestThree(pick(timed, func(x repResult) float64 { return x.simulate }))
	layer["bench.trace_overhead_frac"] = (traced.simulate - untraced) / untraced

	out := map[string]stat{}
	for _, m := range layerMetrics {
		out[m.Name] = stat{Value: layer[m.Name], Unit: m.Unit}
	}
	return out, nil
}

// pick projects one measurement out of each repetition.
func pick(rs []repResult, f func(repResult) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, x := range rs {
		xs[i] = f(x)
	}
	return xs
}

// hostTime summarises repetitions of a host-time measurement. Host time on
// a shared machine is noisy upward only, so the value is the mean of the
// three fastest repetitions; median and IQR are reported beside it.
func hostTime(xs []float64, unit string) stat {
	return stat{Value: fastestThree(xs), Unit: unit, Median: median(xs), IQR: iqr(xs), N: len(xs)}
}

// middle summarises repetitions of a quantity that repeats almost exactly
// (allocation volume, live heap) by its median.
func middle(xs []float64, unit string) stat {
	return stat{Value: median(xs), Unit: unit, Median: median(xs), IQR: iqr(xs), N: len(xs)}
}

// fastestThree is the mean of the three smallest values (of all of them
// when there are fewer).
func fastestThree(xs []float64) float64 {
	s := sorted(xs)
	if len(s) > 3 {
		s = s[:3]
	}
	return sum(s) / float64(len(s))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(xs []float64) float64 {
	s := sorted(xs)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// quantile interpolates linearly between the order statistics of a sorted
// sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// liveHeapMB is HeapAlloc after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// fingerprint hashes a repetition's simulated observables: the counters,
// the float bits of every value, and any raw bytes.
func fingerprint(counters []uint64, values []float64, raw []byte) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, c := range counters {
		binary.LittleEndian.PutUint64(buf[:], c)
		h.Write(buf[:])
	}
	for _, v := range values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	h.Write(raw)
	return h.Sum64()
}

func cpuSeconds(ru syscall.Rusage) float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1e3
			}
		}
	}
	return 0
}
