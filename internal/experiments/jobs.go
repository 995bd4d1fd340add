package experiments

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"sort"

	"firm/internal/runner"
	"firm/internal/sim"
)

// This file declares every experiment once, in the declared table. An
// experiment whose runs fan out is a campaign of three parts: prepare
// (optional) runs on the coordinator — the agent training of fig1, fig10
// and fig11b — cells builds the job list from (scale, seed, prepared
// input), and reduce folds the results, in cell order, into the artifact.
// One adaptor turns that declaration into both the experiment Get returns
// and the named job set RunJob serves: the coordinator builds the list once
// and hands the same value to dispatch and to reduce, and a worker rebuilds
// it from nothing but (set, scale, seed, input, key), so where a cell runs
// can never change the list or its result. Most sets take no input; fig1's
// and fig10's cells take the trained agent's rl.Snapshot and fig11b's its
// checkpoints, and every request of the set carries them.

// Exec says how a campaign executes — never what it computes: every field
// may differ between two runs, or between the machines of one run, without
// changing a byte of output. cmd/firmbench builds one from its flags and it
// is handed down through every experiment, job builder and training
// campaign. The zero Exec runs everything on the calling goroutine, shards
// sharded cells 8 ways and dispatches nothing.
type Exec struct {
	// Pool is the worker budget shared by campaign jobs, episode-rollout
	// actors and sharded-engine window workers; nil means one worker.
	Pool *runner.Pool
	// Shards is the engine shard count for sharded cells such as gensweep's
	// 10,000-service topology; <= 0 means 8.
	Shards int
	// Remote, when non-nil, executes named job sets' jobs somewhere
	// else (the distributed coordinator puts internal/dist's worker pool
	// here); nil runs them on Pool.
	Remote Dispatcher
}

func (x Exec) shards() int {
	if x.Shards > 0 {
		return x.Shards
	}
	return 8
}

// Dispatcher executes a named job set's jobs somewhere else. RunJobs
// must return one JSON result per key, in key order, each produced by
// Exec.RunJob on the given input (same seed derivation as the local path),
// so using one never changes results — only where the work happens.
type Dispatcher interface {
	RunJobs(set, scale string, seed int64, input []byte, keys []string) ([][]byte, error)
}

// A Runner regenerates one paper artifact at the given scale and seed,
// executing as x says.
type Runner func(x Exec, sc Scale, seed int64) (Reportable, error)

// An experiment is one entry of the declared table. title is the paper
// artifact's one-line caption. run regenerates the artifact under its table
// id. jobs, nil for an experiment without cells, rebuilds the cell list
// from wire form, each cell returning its result wire-encoded: what RunJob
// serves.
type experiment struct {
	title string
	run   func(id string, x Exec, sc Scale, seed int64) (Reportable, error)
	jobs  func(x Exec, sc Scale, seed int64, input []byte) ([]runner.Job[[]byte], error)
}

// declared is the one table of experiments: the CLI's -run/-list, the
// campaign loop and the distributed worker all read it, and every
// experiment with cells is also the job set of the same name. It is a
// literal, so a duplicate id does not compile; init assigns it because
// headline reaches fig10 and fig11b through it.
var declared map[string]experiment

func init() {
	declared = map[string]experiment{
		"fig1":       campaign("Fig 1: mem-BW contention on Social Network, with and without FIRM", trainBase(2), fig1Jobs, fig1Reduce),
		"table1":     campaign("Table 1: CP changes under anomaly injection (mean latency, ms)", nil, table1Jobs, table1Reduce),
		"fig3":       campaign("Fig 3: min/max critical-path latency distributions", nil, fig3Jobs, fig3Reduce),
		"fig4":       campaign("Fig 4: scaling highest-variance vs highest-median service (compose-post)", nil, fig4Jobs, fig4Reduce),
		"fig5":       campaign("Fig 5: scale-up vs scale-out (median e2e ms, 95% CI)", nil, fig5Jobs, fig5Reduce),
		"fig9a":      campaign("Fig 9(a): single-anomaly localization ROC", nil, fig9aJobs, fig9aReduce),
		"fig9b":      campaign("Fig 9(b): multi-anomaly localization accuracy", nil, fig9bJobs, fig9bReduce),
		"fig9c":      {title: "Fig 9(c): multi-anomaly injection schedule (intensity per 10s window)", run: fig9c},
		"gensweep":   campaign("GenSweep: generated topologies under diurnal + flash-crowd + session traffic", nil, gensweepJobs, gensweepReduce),
		"faultsweep": campaign("FaultSweep: scenario library vs detection/localization/mitigation, k-means fault families", nil, faultsweepJobs, faultsweepReduce),
		"fig10":      campaign("Fig 10: end-to-end comparison of FIRM, AIMD and K8s autoscaling on Social Network", trainBase(1), fig10Jobs, fig10Reduce),
		"fig11a":     campaign("Fig 11(a): RL training reward (Train-Ticket)", nil, fig11aJobs, fig11aReduce),
		"fig11b":     campaign("Fig 11(b): SLO mitigation time vs training (seconds)", fig11bCheckpoints, fig11bJobs, fig11bReduce),
		"table6":     {title: "Table 6: resource-management operation latency (ms)", run: table6},
		"headline":   {title: "Headline results vs paper claims", run: headline},
	}
}

// campaign declares an experiment whose runs are cells. prepare, when
// non-nil, runs once on the coordinator and its result goes to every cell
// (with every remote request) and to reduce. I and T must survive a gob
// round-trip (exported fields), which keeps remote cells and results
// byte-identical to local ones.
func campaign[I, T any, R Reportable](
	title string,
	prepare func(Exec, Scale, int64) (I, error),
	cells func(Exec, Scale, int64, I) ([]runner.Job[T], error),
	reduce func(Scale, int64, I, []T) (R, error),
) experiment {
	run := func(id string, x Exec, sc Scale, seed int64) (Reportable, error) {
		var in I
		if prepare != nil {
			var err error
			if in, err = prepare(x, sc, seed); err != nil {
				return nil, err
			}
		}
		jobs, err := cells(x, sc, seed, in)
		if err != nil {
			return nil, err
		}
		results, err := mapJobs(x, id, sc, seed, in, jobs)
		if err != nil {
			return nil, err
		}
		return reduce(sc, seed, in, results)
	}
	return experiment{title: title, run: run, jobs: fineJobs(cells)}
}

// Get returns the experiment runner for id.
func Get(id string) (Runner, bool) {
	e, ok := declared[id]
	if !ok {
		return nil, false
	}
	return func(x Exec, sc Scale, seed int64) (Reportable, error) { return e.run(id, x, sc, seed) }, true
}

// Title returns the experiment's one-line caption ("" for an unknown id).
func Title(id string) string { return declared[id].title }

// IDs returns every experiment id, sorted — the campaign declaration order
// of `-run all`.
func IDs() []string {
	out := make([]string, 0, len(declared))
	for id := range declared {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// JobSets returns the names of the job sets — the experiments with cells —
// sorted.
func JobSets() []string {
	var out []string
	for _, id := range IDs() {
		if declared[id].jobs != nil {
			out = append(out, id)
		}
	}
	return out
}

// RunJob executes one job of a named set under x — what a distributed
// worker serves, and what the coordinator falls back to when no worker is
// left. It rebuilds the set's list from (scale, seed, input), finds key,
// and runs it on the seed the local path would derive. An unknown set
// means the two processes disagree about the campaign (mismatched
// binaries, say).
func (x Exec) RunJob(set, scale string, seed int64, input []byte, key string) ([]byte, error) {
	e := declared[set]
	if e.jobs == nil {
		return nil, fmt.Errorf("experiments: unknown job set %q (binaries out of sync?)", set)
	}
	sc, err := ScaleByName(scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: job set %q: %w", set, err)
	}
	jobs, err := e.jobs(x, sc, seed, input)
	if err != nil {
		return nil, fmt.Errorf("experiments: job set %q: %w", set, err)
	}
	for _, j := range jobs {
		if j.Key == key {
			return j.Run(sim.DeriveSeed(seed, key))
		}
	}
	return nil, fmt.Errorf("experiments: job set %q has no job %q", set, key)
}

// wireEncode serializes a job's input or result for the wire: gob for
// the value — bit-exact float64s including NaN and ±Inf, which plain
// encoding/json rejects, so a job whose statistics legitimately come out
// NaN behaves identically locally and remotely — wrapped in a JSON string
// (base64) to keep the protocol envelope JSON.
func wireEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return json.Marshal(buf.Bytes())
}

// wireDecode reverses wireEncode.
func wireDecode[T any](raw []byte, out *T) error {
	var blob []byte
	if err := json.Unmarshal(raw, &blob); err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(blob)).Decode(out)
}

// noInput is the input type of a job set whose list is a function of
// (scale, seed) alone; it travels as no bytes at all.
type noInput struct{}

// encodeInput is a job set's input in wire form (nil for noInput).
func encodeInput[I any](in I) ([]byte, error) {
	if _, none := any(in).(noInput); none {
		return nil, nil
	}
	return wireEncode(in)
}

// decodeInput reverses encodeInput.
func decodeInput[I any](raw []byte, in *I) error {
	if _, none := any(*in).(noInput); none {
		return nil
	}
	return wireDecode(raw, in)
}

// fineJobs is the worker side of a campaign's cells: it decodes the input,
// builds the list, checks it as mapJobs does, and wraps every cell to
// return its result wire-encoded.
func fineJobs[I, T any](cells func(Exec, Scale, int64, I) ([]runner.Job[T], error)) func(Exec, Scale, int64, []byte) ([]runner.Job[[]byte], error) {
	return func(x Exec, sc Scale, seed int64, input []byte) ([]runner.Job[[]byte], error) {
		var in I
		if err := decodeInput(input, &in); err != nil {
			return nil, fmt.Errorf("decode input: %w", err)
		}
		jobs, err := cells(x, sc, seed, in)
		if err != nil {
			return nil, err
		}
		if err := runner.Check(jobs); err != nil {
			return nil, err
		}
		wire := make([]runner.Job[[]byte], len(jobs))
		for i, j := range jobs {
			wire[i] = runner.Job[[]byte]{Key: j.Key, Run: func(seed int64) ([]byte, error) {
				res, err := j.Run(seed)
				if err != nil {
					return nil, err
				}
				return wireEncode(res)
			}}
		}
		return wire, nil
	}
}

// mapJobs runs a named set's job list: remotely when x names a
// dispatcher (and the scale is a named one a remote machine can rebuild),
// on x's pool otherwise. campaign passes the list its cells built for
// (x, sc, seed, in); in travels with every remote request. The list is
// checked once, before either branch, so a list the local path would
// refuse is never dispatched. Results come back in declaration order
// either way, and are byte-identical either way.
func mapJobs[I, T any](x Exec, name string, sc Scale, seed int64, in I, jobs []runner.Job[T]) ([]T, error) {
	if err := runner.Check(jobs); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	if d := x.Remote; d != nil {
		// Remote dispatch requires a scale a remote process can expand from
		// its name; ad-hoc Scale values (tests) always run locally.
		if _, err := ScaleByName(sc.Name); err == nil {
			input, err := encodeInput(in)
			if err != nil {
				return nil, fmt.Errorf("experiments: dispatch %s: encode input: %w", name, err)
			}
			keys := make([]string, len(jobs))
			for i, j := range jobs {
				keys[i] = j.Key
			}
			raws, err := d.RunJobs(name, sc.Name, seed, input, keys)
			if err != nil {
				return nil, fmt.Errorf("experiments: dispatch %s: %w", name, err)
			}
			if len(raws) != len(jobs) {
				return nil, fmt.Errorf("experiments: dispatch %s: got %d results for %d jobs", name, len(raws), len(jobs))
			}
			out := make([]T, len(jobs))
			for i, raw := range raws {
				if err := wireDecode(raw, &out[i]); err != nil {
					return nil, fmt.Errorf("experiments: dispatch %s: decode %s: %w", name, jobs[i].Key, err)
				}
			}
			return out, nil
		}
	}
	return runner.Map(x.Pool, seed, jobs)
}
