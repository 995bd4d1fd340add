package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
)

// A Runner regenerates one paper artifact at the given scale and seed,
// executing as x says. The
// registry below is the single authoritative table of experiment ids: the
// CLI's -run/-list, the distributed coordinator's campaign job list, and
// the -serve worker's experiment execution all read it, so every machine in
// a campaign agrees on what an id means.
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
// declaration order used by `-run all` locally and by the distributed
// coordinator's job list.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ExperimentSet is the job set that executes whole experiments: its
// keys are the registry ids and its payload carries both render targets of
// a result. It is the coarse granularity the distributed campaign
// dispatches at — one experiment, training phases included, per job — while
// the fine-grained sets in jobs.go expose each experiment's inner fan-out.
// Unlike fine-grained jobs, an experiment job runs on the campaign seed
// itself (exactly as the local campaign loop calls it), so the artifact is
// byte-identical wherever it executes.
const ExperimentSet = "experiment"

// ExperimentPayload is the wire form of one executed experiment: the stdout
// artifact and the typed record (canonical-JSON-encodable report.Report),
// stamped with scale and seed as the local campaign loop stamps it.
type ExperimentPayload struct {
	Text   string          `json:"text"`
	Report json.RawMessage `json:"report"`
}

// runExperiment is ExperimentSet's jobFunc.
func runExperiment(x Exec, scale string, seed int64, id string) ([]byte, error) {
	sc, err := ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	fn, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	res, err := fn(x, sc, seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	rep := res.Report()
	rep.Scale = sc.Name
	rep.Seed = seed
	rj, err := json.Marshal(rep)
	if err != nil {
		return nil, fmt.Errorf("%s: encode report: %w", id, err)
	}
	return json.Marshal(ExperimentPayload{Text: res.String(), Report: rj})
}
