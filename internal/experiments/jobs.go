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

// This file turns every fan-out in the package into a named, serializable
// job set. An experiment's fan-out enters its builder in the jobSets table;
// the builder is the single source of truth for the list, so the machine
// that schedules a job and the machine that executes it reconstruct
// identical jobs from nothing but (set, scale, seed, input, key). Most sets
// take no input. The ones whose cells evaluate a trained agent (fig1,
// fig10, fig11b) take the agent's rl.Snapshot as input: training runs once
// on the coordinator, and every request of the set carries the weights.

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
// set's jobFunc on the given input (same seed derivation as the local
// path), so using one never changes results — only where the work happens.
type Dispatcher interface {
	RunJobs(set, scale string, seed int64, input []byte, keys []string) ([][]byte, error)
}

// A jobFunc executes one job of a named job set under x and returns its
// result in wire form: it rebuilds the set's job list from (scale, seed,
// input), finds key, and runs it on the seed the local path would derive —
// so where a job runs can never change its result.
type jobFunc func(x Exec, scale string, seed int64, input []byte, key string) ([]byte, error)

// jobSets is the one table of named job sets, one per experiment fan-out,
// named after the owning experiment's id. It is a literal, so a duplicate
// name does not compile.
var jobSets = map[string]jobFunc{
	"table1":     fineJobs("table1", plain(table1Jobs)),
	"fig1":       fineJobs("fig1", fig1Jobs),
	"fig3":       fineJobs("fig3", plain(fig3Jobs)),
	"fig4":       fineJobs("fig4", plain(fig4Jobs)),
	"fig5":       fineJobs("fig5", plain(fig5Jobs)),
	"fig9a":      fineJobs("fig9a", plain(fig9aJobs)),
	"fig9b":      fineJobs("fig9b", plain(fig9bJobs)),
	"fig10":      fineJobs("fig10", fig10Jobs),
	"fig11a":     fineJobs("fig11a", plain(fig11aJobs)),
	"fig11b":     fineJobs("fig11b", fig11bJobs),
	"gensweep":   fineJobs("gensweep", plain(gensweepJobs)),
	"faultsweep": fineJobs("faultsweep", plain(faultsweepJobs)),
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
func (x Exec) RunJob(set, scale string, seed int64, input []byte, key string) ([]byte, error) {
	run, ok := jobSets[set]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown job set %q (binaries out of sync?)", set)
	}
	return run(x, scale, seed, input, key)
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

// plain adapts a builder that takes no input to fineJobs' shape.
func plain[T any](build func(Exec, Scale, int64) ([]runner.Job[T], error)) func(Exec, Scale, int64, noInput) ([]runner.Job[T], error) {
	return func(x Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[T], error) { return build(x, sc, seed) }
}

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

// fineJobs adapts a fan-out job-list builder to a jobFunc. Locally the
// builder receives its input as a value; a worker decodes it from the
// request first. I and T must survive a gob round-trip (exported fields),
// which keeps remote jobs and results byte-identical to local ones.
func fineJobs[I, T any](name string, build func(Exec, Scale, int64, I) ([]runner.Job[T], error)) jobFunc {
	return func(x Exec, scale string, seed int64, input []byte, key string) ([]byte, error) {
		sc, err := ScaleByName(scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: job set %q: %w", name, err)
		}
		var in I
		if err := decodeInput(input, &in); err != nil {
			return nil, fmt.Errorf("experiments: job set %q: decode input: %w", name, err)
		}
		jobs, err := build(x, sc, seed, in)
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
// (x, sc, seed, in) — callers that also need plan metadata build once
// and pass the list through, rather than having mapJobs re-enumerate it;
// in travels with every remote request. Results come back in declaration
// order either way, and are byte-identical either way.
func mapJobs[I, T any](x Exec, name string, sc Scale, seed int64, in I, jobs []runner.Job[T]) ([]T, error) {
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
