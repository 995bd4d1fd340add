package runner

import (
	"fmt"
	"sort"
)

// A Set is a named, re-enumerable job list: every machine rebuilds the
// identical list — same keys, in the same declaration order, with the same
// semantics — from nothing but a scale name and the campaign seed. That is
// what turns a Job from a closure, runnable only in the process that built
// it, into a serializable (set, key) reference that internal/dist can ship
// to another machine. Execution keeps the local seeding contract: a set's
// Run derives the job seed from the campaign seed and the job key exactly
// as Map does, so where a job runs (and how often it was retried) can never
// change its result.
//
// X is the execution value of the package that declares the sets (for the
// experiments, experiments.Exec): the executing machine's own pool and
// shard settings, passed to Run by whoever executes the job.
type Set[X any] struct {
	// Keys enumerates the set's job keys in declaration order.
	Keys func(scale string, seed int64) ([]string, error)
	// Run rebuilds the job list and executes the job with the given key,
	// returning its result encoded as JSON.
	Run func(x X, scale string, seed int64, key string) ([]byte, error)
}

// Registry is a table of named job sets. It is filled at package init by
// the package that owns it and only read afterwards; the zero value is
// ready to use.
type Registry[X any] struct {
	sets map[string]Set[X]
}

// Register installs a named job set. Registration happens at package init
// (experiment packages register their fan-out job lists), so a duplicate
// name is a programming error and panics.
func (r *Registry[X]) Register(name string, s Set[X]) {
	if name == "" || s.Keys == nil || s.Run == nil {
		panic("runner: Register requires a name, Keys, and Run")
	}
	if _, dup := r.sets[name]; dup {
		panic(fmt.Sprintf("runner: duplicate job set %q", name))
	}
	if r.sets == nil {
		r.sets = map[string]Set[X]{}
	}
	r.sets[name] = s
}

// Lookup returns the named job set.
func (r *Registry[X]) Lookup(name string) (Set[X], bool) {
	s, ok := r.sets[name]
	return s, ok
}

// Names returns the registered set names, sorted.
func (r *Registry[X]) Names() []string {
	out := make([]string, 0, len(r.sets))
	for name := range r.sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
