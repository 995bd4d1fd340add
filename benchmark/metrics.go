package main

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndDef is an end-to-end metric: what a user of the simulator sees.
type endToEndDef struct {
	metricDef
	// Bound is the share of the reference value by which the metric may
	// worsen before it counts as a regression.
	Bound float64
	// Exact metrics are simulated quantities (or the failure share) and
	// must repeat bit for bit at a fixed seed.
	Exact bool
	// Workloads lists where the metric is defined; nil means everywhere.
	Workloads []string
}

var (
	simWorkloads = []string{"firm-loop", "mesh-1k", "mesh-10k-sharded"}
	parWorkloads = []string{"mesh-10k-sharded", "rl-train"}
)

// hostMetrics are the end-to-end metrics measured in host time and memory.
// They exist on every workload and are never zero, so BENCHMARK.json
// declares them as end_to_end and the --trace 0 result line carries them.
var hostMetrics = []endToEndDef{
	{metricDef: metricDef{"setup_s", "s", "lower"}, Bound: 0.25},
	{metricDef: metricDef{"wall_s", "s", "lower"}, Bound: 0.25},
	{metricDef: metricDef{"sim_speed", "sim-s/s", "higher"}, Bound: 0.25},
	{metricDef: metricDef{"alloc_mb", "MB", "lower"}, Bound: 0.15},
	{metricDef: metricDef{"live_heap_mb", "MB", "lower"}, Bound: 0.05},
}

// planeMetrics are the end-to-end metrics that are defined on some
// workloads only or are exact (and may be zero). BENCHMARK.json's contract
// wants every end_to_end metric on every workload and never zero, so it
// lists these under per_layer and the --trace 1 result line carries them,
// with 0 where a metric does not apply.
var planeMetrics = []endToEndDef{
	{metricDef: metricDef{"par_speedup", "x", "higher"}, Bound: 0.07, Workloads: parWorkloads},
	{metricDef: metricDef{"failed_frac", "ratio", "lower"}, Exact: true},
	{metricDef: metricDef{"sim_p99_ms", "sim-ms", "lower"}, Exact: true, Workloads: simWorkloads},
	{metricDef: metricDef{"sim_drop_frac", "ratio", "lower"}, Exact: true, Workloads: simWorkloads},
	{metricDef: metricDef{"slo_violation_frac", "ratio", "lower"}, Exact: true, Workloads: []string{"firm-loop"}},
	{metricDef: metricDef{"cpu_limit_mean_pct", "%core", "lower"}, Exact: true, Workloads: []string{"firm-loop"}},
	{metricDef: metricDef{"train_reward", "reward", "higher"}, Exact: true, Workloads: []string{"rl-train"}},
}

// endToEndMetrics lists every end-to-end metric, host metrics first.
func endToEndMetrics() []endToEndDef {
	return append(append([]endToEndDef(nil), hostMetrics...), planeMetrics...)
}

func planeMetric(name string) endToEndDef {
	for _, m := range planeMetrics {
		if m.Name == name {
			return m
		}
	}
	panic("benchmark: unknown end-to-end metric " + name)
}

// definedOn reports whether the metric applies to the workload.
func (m endToEndDef) definedOn(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// shareLayers are the CPU self-time buckets, in report order. Each is
// reported as <layer>.cpu_share, except the three runtime buckets.
var shareLayers = []string{
	"sim", "app", "cluster", "workload", "trace", "tracedb", "telemetry",
	"detect", "core", "rl", "rollout", "injector", "topology", "harness",
}

// layerMetrics are the per-layer metrics of the traced run, in report
// order.
var layerMetrics = buildLayerMetrics()

// exactLayerMetrics names the per-layer metrics that are simulated counts:
// two runs of one commit at one seed must agree on them exactly.
var exactLayerMetrics = []string{
	"sim.events", "sim.events_per_request", "sim.pending_max", "sim.shard_events_max_over_mean",
	"workload.submitted", "app.completed", "app.dropped", "app.violations",
	"trace.pending_max", "tracedb.stored", "tracedb.len", "telemetry.samples",
	"core.mitigations", "cluster.requested_cpu", "rl.transitions", "rollout.episodes",
}

func buildLayerMetrics() []metricDef {
	var ms []metricDef
	for _, l := range shareLayers {
		ms = append(ms, metricDef{l + ".cpu_share", "ratio", "lower"})
	}
	for _, b := range []string{"runtime.gc_cpu_share", "runtime.malloc_cpu_share", "runtime.other_cpu_share", "other.cpu_share"} {
		ms = append(ms, metricDef{b, "ratio", "lower"})
	}
	higher := map[string]bool{"app.completed": true, "workload.submitted": true, "tracedb.stored": true, "tracedb.len": true,
		"telemetry.samples": true, "rl.transitions": true, "rollout.episodes": true}
	for _, name := range exactLayerMetrics {
		better := "lower"
		if higher[name] {
			better = "higher"
		}
		unit := "count"
		if name == "cluster.requested_cpu" {
			unit = "cores"
		}
		ms = append(ms, metricDef{name, unit, better})
	}
	for _, span := range phaseSpans {
		ms = append(ms, metricDef{span + "_ms", "ms", "lower"})
	}
	for _, p := range perfProbes {
		ms = append(ms, metricDef{p[0], "ns/call", "lower"})
	}
	for _, own := range []string{"sim.event_ns", "cpath.extract_ns", "rl.act_ns"} {
		ms = append(ms, metricDef{own, "ns/call", "lower"})
	}
	return append(ms,
		metricDef{"runtime.allocs_per_event", "count", "lower"},
		metricDef{"runtime.bytes_per_event", "B", "lower"},
		metricDef{"runtime.gc_cycles", "count", "lower"},
		metricDef{"runtime.gc_pause_ms", "ms", "lower"},
		metricDef{"runtime.peak_rss_mb", "MB", "lower"},
		metricDef{"runtime.cpu_over_wall", "ratio", "lower"},
		metricDef{"bench.trace_overhead_frac", "ratio", "lower"},
	)
}
