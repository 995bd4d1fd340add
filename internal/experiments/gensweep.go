package experiments

import (
	"fmt"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/harness"
	"firm/internal/report"
	"firm/internal/runner"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// gensweep is the web-scale sweep: procedurally generated topologies
// from 10 to 1,000 services, each driven by a composite
// heavy-traffic pattern (diurnal base + flash crowd + per-user session
// streams) realized by the thinning arrival sampler. Every cell is an
// independent simulation keyed by its generator parameters, so the sweep
// fans across runner slots — and, via internal/dist, across machines: the
// job key plus (scale, seed) is all a worker needs to rebuild the exact
// topology and traffic.

// gensweepSizes are the sweep's cells: generator parameters stepping from
// 10 services to 1,000, deepening and widening as the graph grows.
var gensweepSizes = []topology.Params{
	{Services: 10, Endpoints: 2, MaxFanout: 2, Depth: 3},
	{Services: 30, Endpoints: 3, MaxFanout: 3, Depth: 4},
	{Services: 100, Endpoints: 4, MaxFanout: 3, Depth: 4},
	{Services: 300, Endpoints: 5, MaxFanout: 3, Depth: 5},
	{Services: 1000, Endpoints: 6, MaxFanout: 3, Depth: 6},
}

// gensweep10k is the sweep's top cell, beyond what one engine sustains: it
// runs on the sharded path (harness.NewSharded). The cell's output is
// byte-identical at any shard count, so the shard setting — like worker
// counts — is an execution knob, not part of the job key.
var gensweep10k = topology.Params{Services: 10000, Endpoints: 12, MaxFanout: 2, Depth: 8}

// gensweepNodes sizes the simulated cluster to the topology: placement is
// by container CPU limits (2 cores each, one replica per service), so a
// thousand services need far more than the paper's 15-node testbed. One
// spare node keeps headroom for replica scale-out.
func gensweepNodes(services int) []cluster.HardwareProfile {
	perNode := int(cluster.XeonProfile.Capacity[cluster.CPU]) / 2
	return repeatProfile(cluster.XeonProfile, (services+perNode-1)/perNode+1)
}

// gensweepPattern composes the heavy-traffic model for one cell: a diurnal
// base, a flash crowd erupting a third of the way in, and a seeded
// per-user session stream. All three are fast-varying — exactly the shapes
// the stale-rate sampler used to lag — so the sweep exercises the thinning
// path end to end.
func gensweepPattern(dur sim.Time, seed int64) (workload.Pattern, error) {
	sessions, err := workload.NewSessions(
		workload.Diurnal{Base: 1.5, Amplitude: 0.5, Period: dur}, // users/s
		3,     // requests/s per user
		dur/8, // session length
		dur,   // horizon
		seed,
	)
	if err != nil {
		return nil, err
	}
	return workload.Sum{
		workload.Diurnal{Base: 60, Amplitude: 20, Period: dur},
		workload.FlashCrowd{
			Base: workload.Constant{}, Peak: 120,
			Start: dur / 3, RampUp: dur / 20, Hold: dur / 6, Decay: dur / 10,
		},
		workload.Scaled{P: sessions, K: 1},
	}, nil
}

// GenSweepRow is one cell's measurements (fields exported for the job
// set's gob wire form).
type GenSweepRow struct {
	Params    topology.Params
	Services  int
	Calls     int // workflow vertices across all endpoint trees
	Nodes     int
	Target    float64 // integrated arrival intensity over the run
	Submitted uint64
	Completed int
	P50Ms     float64
	P99Ms     float64
}

// gensweepRow assembles a cell's row from what its run observed. Target is
// the integrated intensity — the open-loop arrivals the thinning sampler is
// accountable for realizing (±Poisson noise).
func gensweepRow(p topology.Params, spec *topology.Spec, nodes int, pattern workload.Pattern,
	dur sim.Time, submitted uint64, lats []float64) GenSweepRow {
	var target float64
	for at := sim.Time(0); at < dur; at += sim.Millisecond {
		target += pattern.Rate(at+sim.Millisecond/2) * sim.Millisecond.Seconds()
	}
	row := GenSweepRow{
		Params:    p,
		Services:  spec.NumServices(),
		Calls:     spec.NumCalls(),
		Nodes:     nodes,
		Target:    target,
		Submitted: submitted,
		Completed: len(lats),
	}
	if len(lats) > 0 {
		row.P50Ms = stats.Percentile(lats, 50)
		row.P99Ms = stats.Percentile(lats, 99)
	}
	return row
}

// gensweepCell runs one generated topology under the composite pattern.
func gensweepCell(p topology.Params, dur sim.Time, seed int64) (GenSweepRow, error) {
	spec, err := topology.Generate(p, seed)
	if err != nil {
		return GenSweepRow{}, err
	}
	pattern, err := gensweepPattern(dur, seed)
	if err != nil {
		return GenSweepRow{}, err
	}
	nodes := gensweepNodes(p.Services)
	b, err := harness.New(harness.Options{Seed: seed, Spec: spec, Nodes: nodes})
	if err != nil {
		return GenSweepRow{}, fmt.Errorf("gensweep %s: %w", p.Key(), err)
	}
	b.AttachWorkload(pattern)
	b.Eng.RunFor(dur)
	lats := b.DB.Latencies(tracedb.Query{})
	return gensweepRow(p, spec, len(nodes), pattern, dur, b.Gen.Submitted, lats), nil
}

// gensweepShardedCell runs one generated topology on the sharded engine,
// x.shards() ways with window workers borrowed from x.Pool. Latencies flow
// through the result hook (the sharded path has no tracing pipeline); hook
// order is event order on the home shard, which the determinism contract
// makes shard-count invariant.
func gensweepShardedCell(x Exec, p topology.Params, dur sim.Time, seed int64) (GenSweepRow, error) {
	spec, err := topology.Generate(p, seed)
	if err != nil {
		return GenSweepRow{}, err
	}
	pattern, err := gensweepPattern(dur, seed)
	if err != nil {
		return GenSweepRow{}, err
	}
	b, err := harness.NewSharded(harness.ShardedOptions{Seed: seed, Spec: spec, Shards: x.shards()})
	if err != nil {
		return GenSweepRow{}, fmt.Errorf("gensweep %s: %w", p.Key(), err)
	}
	var lats []float64
	b.App.SetResultHook(func(r app.Result) {
		if !r.Dropped {
			lats = append(lats, r.Latency.Millis())
		}
	})
	b.AttachWorkload(pattern)
	b.Run(dur, x.Pool)
	return gensweepRow(p, spec, b.NumNodes, pattern, dur, b.Gen.Submitted, lats), nil
}

// gensweepJobs declares the sweep's job list: one independent simulation
// per generated-topology size, keyed by the generator parameters. Each job
// derives its own seed from (campaign seed, key), so results are identical
// wherever the job runs. The 10,000-service cell runs on the sharded
// engine under the executing machine's x, so a dist worker applies its own
// -shards setting — legal because the row is byte-identical at any shard
// count.
func gensweepJobs(x Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[GenSweepRow], error) {
	dur := sc.dur(30 * sim.Second)
	var jobs []runner.Job[GenSweepRow]
	for _, p := range gensweepSizes {
		jobs = append(jobs, runner.Job[GenSweepRow]{
			Key: runner.Key("gensweep", p.Key()),
			Run: func(jobSeed int64) (GenSweepRow, error) {
				return gensweepCell(p, dur, jobSeed)
			},
		})
	}
	p10k := gensweep10k
	jobs = append(jobs, runner.Job[GenSweepRow]{
		Key: runner.Key("gensweep", p10k.Key()),
		Run: func(jobSeed int64) (GenSweepRow, error) {
			return gensweepShardedCell(x, p10k, dur, jobSeed)
		},
	})
	return jobs, nil
}

// GenSweepResult holds the sweep rows in size order.
type GenSweepResult struct {
	Rows []GenSweepRow
}

// gensweepReduce collects the generated-topology scale sweep's rows.
func gensweepReduce(_ Scale, _ int64, _ noInput, rows []GenSweepRow) (*GenSweepResult, error) {
	return &GenSweepResult{Rows: rows}, nil
}

// Report converts the sweep into its typed record.
func (r *GenSweepResult) Report() *report.Report {
	rep := report.New("gensweep")
	for _, row := range r.Rows {
		rep.Row(fmt.Sprintf("s%04d", row.Services)).
			Dim("params", row.Params.Key()).
			Val("services", "", float64(row.Services)).
			Val("calls", "", float64(row.Calls)).
			Val("nodes", "", float64(row.Nodes)).
			Val("target-arrivals", "req", row.Target).
			Val("submitted", "req", float64(row.Submitted)).
			Val("realized", "x", ratio(float64(row.Submitted), row.Target)).
			Val("completed", "req", float64(row.Completed)).
			Val("p50", "ms", row.P50Ms).
			Val("p99", "ms", row.P99Ms)
	}
	return rep
}
