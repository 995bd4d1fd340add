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

// This file turns the experiments' fan-out job lists from closure-only
// values into named, serializable job sets. Each self-contained sweep — one
// whose job list is a pure, cheap function of (scale, seed) — enters its
// builder in the jobSets table; the builder is the single source of truth
// for the list, so the machine that schedules a job and the machine that
// executes it reconstruct identical jobs from nothing but (set, scale,
// seed, key). Experiments whose jobs capture expensive setup (trained
// agents, checkpoint snapshots: fig1, fig10, fig11a, fig11b) keep their
// closures local and distribute at whole-experiment granularity instead
// (registry.go's ExperimentSet).

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
// must return one JSON result per key, in key order, each produced by the
// set's jobFunc (same seed derivation as the local path), so using
// one never changes results — only where the work happens.
type Dispatcher interface {
	RunJobs(set, scale string, seed int64, keys []string) ([][]byte, error)
}

// A jobFunc executes one job of a named job set under x and returns its
// result in wire form: it rebuilds the set's job list from (scale, seed),
// finds key, and runs it on the seed the local path would derive — so where
// a job runs can never change its result.
type jobFunc func(x Exec, scale string, seed int64, key string) ([]byte, error)

// jobSets is the one table of named job sets: registry.go's
// whole-experiment set, and one fine-grained set per self-contained sweep,
// named after the owning experiment's id (which is what lets the
// coordinator pick cell-level dispatch for a single-experiment campaign).
// It is a literal, so a duplicate name does not compile.
var jobSets = map[string]jobFunc{
	ExperimentSet: runExperiment,
	"table1":      fineJobs("table1", table1Jobs),
	"fig3":        fineJobs("fig3", fig3Jobs),
	"fig4":        fineJobs("fig4", fig4Jobs),
	"fig5":        fineJobs("fig5", fig5Jobs),
	"fig9a":       fineJobs("fig9a", fig9aJobs),
	"fig9b":       fineJobs("fig9b", fig9bJobs),
	"gensweep":    fineJobs("gensweep", gensweepJobs),
	"faultsweep":  fineJobs("faultsweep", faultsweepJobs),
}

// JobSets returns the names of the job sets, sorted.
func JobSets() []string {
	out := make([]string, 0, len(jobSets))
	for name := range jobSets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RunJob executes one job of a named set under x — what a distributed
// worker serves, and what the coordinator falls back to when no worker is
// left. An unknown set means the two processes disagree about the campaign
// (mismatched binaries, say).
func (x Exec) RunJob(set, scale string, seed int64, key string) ([]byte, error) {
	run, ok := jobSets[set]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown job set %q (binaries out of sync?)", set)
	}
	return run(x, scale, seed, key)
}

// HasJobSet reports whether the experiment id has a fine-grained job set,
// i.e. whether its fan-out can be dispatched cell by cell rather than as
// one whole-experiment job.
func HasJobSet(id string) bool { return id != ExperimentSet && jobSets[id] != nil }

// wireEncode serializes a fine-grained job result for the wire: gob for
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

// fineJobs adapts a fan-out job-list builder to a jobFunc. T must survive
// a gob round-trip (exported fields), which keeps remote results
// byte-identical to local ones.
func fineJobs[T any](name string, build func(Exec, Scale, int64) ([]runner.Job[T], error)) jobFunc {
	return func(x Exec, scale string, seed int64, key string) ([]byte, error) {
		sc, err := ScaleByName(scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: job set %q: %w", name, err)
		}
		jobs, err := build(x, sc, seed)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j.Key == key {
				res, err := j.Run(sim.DeriveSeed(seed, key))
				if err != nil {
					return nil, err
				}
				return wireEncode(res)
			}
		}
		return nil, fmt.Errorf("experiments: job set %q has no job %q", name, key)
	}
}

// mapJobs runs a named set's job list: remotely when x names a
// dispatcher (and the scale is a named one a remote machine can rebuild),
// on x's pool otherwise. jobs must be the set's own builder output for
// (x, sc, seed) — callers that also need plan metadata build once
// and pass the list through, rather than having mapJobs re-enumerate it.
// Results come back in declaration order either way, and are byte-identical
// either way.
func mapJobs[T any](x Exec, name string, sc Scale, seed int64, jobs []runner.Job[T]) ([]T, error) {
	if d := x.Remote; d != nil {
		// Remote dispatch requires a scale a remote process can expand from
		// its name; ad-hoc Scale values (tests) always run locally.
		if _, err := ScaleByName(sc.Name); err == nil {
			keys := make([]string, len(jobs))
			for i, j := range jobs {
				keys[i] = j.Key
			}
			raws, err := d.RunJobs(name, sc.Name, seed, keys)
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
