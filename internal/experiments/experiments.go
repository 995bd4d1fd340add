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
	"strings"

	"firm/internal/app"
	"firm/internal/core"
	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/injector"
	"firm/internal/report"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/workload"
)

// Reportable is implemented by every experiment result: String renders the
// human-readable stdout artifact (pinned by the golden files) and Report
// converts the result into internal/report's typed record for `-json`
// output, machine diffing, and cross-machine campaign merges.
type Reportable interface {
	fmt.Stringer
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
	PolicyNone Policy = iota
	PolicyFIRMSingle
	PolicyFIRMMulti
	PolicyHPA
	PolicyAIMD
)

// String names the policy as in the paper's legends.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "none"
	case PolicyFIRMSingle:
		return "FIRM (Single-RL)"
	case PolicyFIRMMulti:
		return "FIRM (Multi-RL)"
	case PolicyHPA:
		return "K8S Auto-scaling"
	case PolicyAIMD:
		return "AIMD"
	}
	return "policy(?)"
}

// RunOpts configures one end-to-end run.
type RunOpts struct {
	Seed     int64
	Spec     *topology.Spec
	Pattern  workload.Pattern
	Duration sim.Time
	Policy   Policy
	// Agents supplies trained agents for the FIRM policies (nil = fresh).
	Agents core.AgentProvider
	// Training enables RL exploration/updates during the run.
	Training bool
	// Campaign enables the §4.1 randomized anomaly-injection campaign.
	Campaign bool
}

// RunStats aggregates one run's observations.
type RunStats struct {
	Policy     Policy
	SLOms      float64
	Latencies  []float64 // end-to-end latency per request (ms)
	Completed  uint64
	Dropped    uint64
	Violations uint64
	// CPULimitSamples holds per-container CPU limits (% of a core) sampled
	// once per second across the run — the Fig. 10(b) distribution.
	CPULimitSamples []float64
	// MitigationTimes holds seconds from violation onset to clearance.
	MitigationTimes []float64
}

// ViolationRate returns the fraction of completed requests over SLO.
func (r RunStats) ViolationRate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Completed)
}

// P99 returns the run's 99th-percentile latency (ms).
func (r RunStats) P99() float64 { return stats.Percentile(r.Latencies, 99) }

// violationMonitor replicates the FIRM controller's mitigation-time
// bookkeeping for policy runs that have no FIRM controller attached, so
// baselines are measured identically. Like the controller, it keeps the
// tail-latency window incrementally (detect.Monitor fed by the trace
// store's observer stream) instead of re-selecting and re-sorting every
// tick; note this monitor deliberately ignores drops (its P99 is over
// completed requests only), matching the batch computation it replaced.
type violationMonitor struct {
	b           *harness.Bench
	mon         *detect.Monitor
	inViolation bool
	since       sim.Time
	times       []float64
}

func attachViolationMonitor(b *harness.Bench) *violationMonitor {
	m := &violationMonitor{b: b, mon: detect.NewMonitor(256)}
	b.DB.Observe(m.mon)
	t := sim.NewTicker(b.Eng, core.Interval, m.tick)
	t.Start()
	return m
}

func (m *violationMonitor) tick() {
	now := m.b.Eng.Now()
	m.mon.Advance(now - core.Window)
	violated := m.mon.Completed() > 0 && m.mon.P99() > m.b.App.SLO.Millis()
	switch {
	case violated && !m.inViolation:
		m.inViolation = true
		m.since = now
	case !violated && m.inViolation:
		m.inViolation = false
		m.times = append(m.times, (now - m.since).Seconds())
	}
}

// Run executes one configured run and collects its statistics.
func Run(opts RunOpts) (RunStats, error) {
	b, err := harness.New(harness.Options{
		Seed:      opts.Seed,
		Spec:      opts.Spec,
		SLOMargin: 1.6,
	})
	if err != nil {
		return RunStats{}, err
	}
	st := RunStats{Policy: opts.Policy, SLOms: b.App.SLO.Millis()}
	b.App.SetResultHook(func(r app.Result) {
		if !r.Dropped {
			st.Latencies = append(st.Latencies, r.Latency.Millis())
		}
	})
	b.AttachWorkload(opts.Pattern)

	var ctl *core.Controller
	var mon *violationMonitor
	switch opts.Policy {
	case PolicyFIRMSingle, PolicyFIRMMulti:
		cfg := core.DefaultConfig()
		cfg.Training = opts.Training
		cfg.IdleReclaim = 3
		cfg.ReclaimFactor = 0.9
		prov := opts.Agents
		if prov == nil {
			if opts.Policy == PolicyFIRMSingle {
				prov = harness.SharedAgent(opts.Seed)
			} else {
				prov = harness.PerServiceAgents(opts.Seed, nil)
			}
		}
		ctl = b.AttachFIRM(cfg, prov, nil)
	case PolicyHPA:
		b.AttachHPA()
		mon = attachViolationMonitor(b)
	case PolicyAIMD:
		b.AttachAIMD()
		mon = attachViolationMonitor(b)
	case PolicyNone:
		mon = attachViolationMonitor(b)
	}

	var camp *injector.Campaign
	if opts.Campaign {
		camp = injector.DefaultCampaign(b.Injector, b.Containers())
		camp.Start()
	}

	// Per-second CPU-limit sampling.
	cpuTicker := sim.NewTicker(b.Eng, sim.Second, func() {
		for _, c := range b.Containers() {
			st.CPULimitSamples = append(st.CPULimitSamples, c.Limits()[0]*100)
		}
	})
	cpuTicker.Start()

	b.Eng.RunFor(opts.Duration)

	if camp != nil {
		camp.Stop()
	}
	st.Completed = b.App.Completed
	st.Dropped = b.App.Dropped
	st.Violations = b.App.Violations
	if ctl != nil {
		st.MitigationTimes = ctl.Mitigations
	} else if mon != nil {
		st.MitigationTimes = mon.times
	}
	return st, nil
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// cdfRow renders quantiles of a sample for compact CDF reporting.
func cdfRow(xs []float64) string {
	if len(xs) == 0 {
		return "(no data)"
	}
	qs := []float64{10, 25, 50, 75, 90, 99}
	parts := make([]string, 0, len(qs))
	for _, q := range qs {
		parts = append(parts, fmt.Sprintf("p%.0f=%.1f", q, stats.Percentile(xs, q)))
	}
	return strings.Join(parts, " ")
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
