package experiments

import "sort"

// A Runner regenerates one paper artifact at the given scale and seed,
// executing as x says. The registry below is the single authoritative
// table of experiment ids: the CLI's -run/-list and the campaign loop read
// it. (What crosses machines is a job set's cell, never a whole
// experiment: see jobs.go.)
type Runner func(x Exec, sc Scale, seed int64) (Reportable, error)

// wrap adapts a concrete experiment constructor to the Runner signature.
func wrap[T Reportable](fn func(Exec, Scale, int64) (T, error)) Runner {
	return func(x Exec, sc Scale, seed int64) (Reportable, error) { return fn(x, sc, seed) }
}

var registry = map[string]Runner{
	"fig1":       wrap(Fig1),
	"table1":     wrap(Table1),
	"fig3":       wrap(Fig3),
	"fig4":       wrap(Fig4),
	"fig5":       wrap(Fig5),
	"fig9a":      wrap(Fig9a),
	"fig9b":      wrap(Fig9b),
	"fig9c":      wrap(Fig9c),
	"gensweep":   wrap(GenSweep),
	"faultsweep": wrap(FaultSweep),
	"fig10":      wrap(Fig10),
	"fig11a":     wrap(Fig11a),
	"fig11b":     wrap(Fig11b),
	"table6":     wrap(Table6),
	"headline":   wrap(Headline),
}

// Get returns the registered experiment runner for id.
func Get(id string) (Runner, bool) {
	fn, ok := registry[id]
	return fn, ok
}

// IDs returns every registered experiment id, sorted — the campaign
// declaration order of `-run all`.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
