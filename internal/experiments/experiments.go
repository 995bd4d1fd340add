// Package experiments contains one runner per table and figure in the
// paper's characterization (§2) and evaluation (§4) sections. Each runner
// builds a testbed via internal/harness, drives it with the paper's
// workloads and anomaly-injection campaigns, and emits the same rows/series
// the paper reports. README's layout table maps packages to paper sections
// and `firmbench -list` enumerates the experiment ids; ROADMAP.md tracks
// which artifacts are still being grown.
package experiments

import (
	"fmt"
	"sort"

	"firm/internal/report"
	"firm/internal/sim"
)

// Reportable is implemented by every experiment result: Report converts it
// into internal/report's typed record, which firmbench prints as text
// (report.Text), writes with `-json`, and diffs and merges across machines.
type Reportable interface {
	Report() *report.Report
}

// Scale controls experiment cost. Quick keeps unit-test/benchmark runtime
// small while preserving each experiment's shape; Full approaches the
// paper's durations.
type Scale struct {
	Name string
	// DurationMul scales run lengths; EpisodeCount scales RL training.
	DurationMul     float64
	EpisodeCount    int
	CheckpointEvery int
	// Repetitions for CI-bearing experiments (Fig. 5).
	Reps int
}

// QuickScale is firmbench's default scale and the one CI's smokes run.
func QuickScale() Scale {
	return Scale{Name: "quick", DurationMul: 0.25, EpisodeCount: 40, CheckpointEvery: 8, Reps: 3}
}

// TinyScale is the smallest campaign that still has every experiment's
// moving parts (multiple episodes, checkpoints, repetitions). Golden-output
// regression tests and CI determinism smoke runs use it.
func TinyScale() Scale {
	return Scale{Name: "tiny", DurationMul: 0.05, EpisodeCount: 5, CheckpointEvery: 2, Reps: 1}
}

// FullScale approximates the paper's experiment sizes.
func FullScale() Scale {
	return Scale{Name: "full", DurationMul: 1, EpisodeCount: 400, CheckpointEvery: 40, Reps: 10}
}

// ScaleByName resolves a scale name to its Scale. The named scales are the
// only ones that cross process boundaries: a distributed job carries just
// the name, and every machine must expand it to the identical parameters.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "quick":
		return QuickScale(), nil
	case "full":
		return FullScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want tiny|quick|full)", name)
}

func (s Scale) dur(base sim.Time) sim.Time {
	d := sim.Time(float64(base) * s.DurationMul)
	if d < 5*sim.Second {
		d = 5 * sim.Second
	}
	return d
}

// Policy selects the resource-management scheme under test.
type Policy int

// The policies compared in Fig. 10 and Fig. 11(b).
const (
	PolicyFIRMSingle Policy = iota
	PolicyHPA
	PolicyAIMD
)

// String names the policy as in the paper's legends.
func (p Policy) String() string {
	switch p {
	case PolicyFIRMSingle:
		return "FIRM (Single-RL)"
	case PolicyHPA:
		return "K8S Auto-scaling"
	case PolicyAIMD:
		return "AIMD"
	}
	return "policy(?)"
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
