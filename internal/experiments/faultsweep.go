package experiments

import (
	"fmt"
	"sort"

	"firm/internal/app"
	"firm/internal/detect"
	"firm/internal/harness"
	"firm/internal/report"
	"firm/internal/runner"
	"firm/internal/scenario"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
	"firm/internal/workload"
)

// faultsweep runs the composable fault-scenario library (internal/scenario)
// against a generated topology and characterizes the detection stack per
// scenario family: how fast the tail-latency monitor notices each mode,
// how accurately the SVM localizer pins the victim, and how much a simple
// detector-driven scale-out mitigates it. Every catalog scenario is one
// campaign job (keyed by scenario name + topology params, dist-ready);
// one extra cell drives a scenario through the sharded engine to pin the
// shard-count-invariance contract for scenario timers. Finally the
// per-window violation feature vectors are k-means-clustered (seeded
// init) to report which fault families the localizer's feature space
// separates and which it confuses.

// faultsweepTopology sizes the victim topology: small enough for the
// tiny-scale golden matrix, deep enough for cascades to have edges to
// climb.
var faultsweepTopology = topology.Params{Services: 12, Endpoints: 2, MaxFanout: 3, Depth: 3}

// faultsweepShardedTopology is the sharded cell's topology.
var faultsweepShardedTopology = topology.Params{Services: 60, Endpoints: 3, MaxFanout: 3, Depth: 4}

// faultsweepWarmup precedes every scenario so the SLO and detector see a
// healthy baseline first.
const faultsweepWarmup = 5 * sim.Second

// faultsweepWindow is the detection/localization observation window.
const faultsweepWindow = 2 * sim.Second

// FaultSweepRow is one scenario cell's measurements (fields exported for
// the job set's gob wire form).
type FaultSweepRow struct {
	Name     string
	Family   string
	Key      string
	Services int

	// DetectMs is the delay from scenario start to the first violated
	// observation window (-1 when the scenario never trips detection).
	DetectMs float64
	// LocAcc is the fraction of ground-truth windows in which the SVM
	// localizer marked a true victim instance critical (-1 when no window
	// carried ground truth).
	LocAcc float64
	// Windows counts violated observation windows during the scenario.
	Windows int

	// BaseViol / MitViol are SLO-violation rates (violations/completed
	// since scenario start) for the unmitigated and mitigated arms;
	// MitEffect is the relative reduction.
	BaseViol  float64
	MitViol   float64
	MitEffect float64
	ScaleOuts int

	OOMKills   int
	Infections int
	Completed  uint64
	Dropped    uint64
	P99Ms      float64

	// Samples holds one violation feature vector per violated window
	// [maxRI, maxCI/detect.CIScale, p99/SLO, dropFrac, criticalFrac] — the
	// observations the characterization clusters.
	Samples [][]float64
}

// faultsweepVictim picks the service with the largest total compute
// across every endpoint workflow — pressure there moves end-to-end tail
// latency, where a low-compute gateway would shrug it off. avoidRoot
// excludes the entry endpoint's root (cascades need a caller to infect).
func faultsweepVictim(spec *topology.Spec, avoidRoot bool) string {
	comp := map[string]float64{}
	var walk func(c *topology.Call)
	walk = func(c *topology.Call) {
		comp[c.Service] += c.Compute.Seconds()
		for _, ch := range c.Children {
			if ch.Call != nil {
				walk(ch.Call)
			}
		}
	}
	for _, ep := range spec.Endpoints {
		if ep.Root != nil {
			walk(ep.Root)
		}
	}
	root := spec.Endpoints[0].Root.Service
	names := make([]string, 0, len(comp))
	for name := range comp {
		names = append(names, name)
	}
	sort.Strings(names)
	best, bestC := root, -1.0
	for _, name := range names {
		if avoidRoot && name == root {
			continue
		}
		if comp[name] > bestC {
			best, bestC = name, comp[name]
		}
	}
	return best
}

// faultsweepScenario builds the entry's scenario pinned to the hottest
// on-path victim.
func faultsweepScenario(entry scenario.Entry, spec *topology.Spec, dur sim.Time) *scenario.Spec {
	sc := entry.Build(dur)
	avoidRoot := false
	for _, ta := range sc.Atoms() {
		if ta.Spec.Family == scenario.Cascade {
			avoidRoot = true
			break
		}
	}
	return sc.On(faultsweepVictim(spec, avoidRoot))
}

// faultsweepArm runs one (scenario, topology, seed) simulation and fills
// the row's single-arm fields: BaseViol holds this arm's violation rate,
// MitViol and MitEffect stay zero. mitigate arms the detector-driven
// response: when a window is violated, the top-scoring critical
// candidate's service gets one warm replica (with a per-service cooldown)
// — deliberately simpler than the RL controller, so the measured effect
// isolates what localization alone buys.
func faultsweepArm(entry scenario.Entry, p topology.Params, dur sim.Time, seed int64, mitigate bool) (FaultSweepRow, error) {
	st := FaultSweepRow{Name: entry.Name, Family: entry.FamilyLabel, Services: p.Services, DetectMs: -1, LocAcc: -1}
	spec, err := topology.Generate(p, seed)
	if err != nil {
		return st, err
	}
	b, err := harness.New(harness.Options{Seed: seed, Spec: spec, SLOMargin: 1.6})
	if err != nil {
		return st, fmt.Errorf("faultsweep %s: %w", entry.Name, err)
	}
	ext := b.NewExtractor()
	b.AttachWorkload(workload.Constant{RPS: 120})

	sc := faultsweepScenario(entry, spec, dur)
	st.Key = sc.Key()
	player, err := scenario.NewPlayer(scenario.Env{
		Eng: b.Eng, Cluster: b.Cluster, Spec: spec,
		Injector: b.Injector, App: b.App,
	}, sc, seed)
	if err != nil {
		return st, fmt.Errorf("faultsweep %s: %w", entry.Name, err)
	}
	start := b.Eng.Now() + faultsweepWarmup
	end := start + player.Horizon()
	b.Eng.Schedule(faultsweepWarmup, player.Arm)

	var baseCompleted, baseViolations uint64
	b.Eng.Schedule(faultsweepWarmup, func() {
		baseCompleted, baseViolations = b.App.Completed, b.App.Violations
	})

	var lats []float64
	truthWindows, locHits := 0, 0
	cooldown := map[string]sim.Time{}
	tick := sim.NewTicker(b.Eng, sim.Second, func() {
		now := b.Eng.Now()
		if now <= start {
			return
		}
		traces := b.DB.Select(tracedb.Query{Since: now - faultsweepWindow, IncludeDrop: true})
		violated := detect.Violated(traces, b.App.SLO)
		cands := ext.Candidates(traces)
		truth := b.Injector.ActiveDuringOverlap(now-faultsweepWindow, now, faultsweepWindow*4/10)
		if len(truth) > 0 && len(cands) > 0 {
			truthWindows++
			for _, c := range cands {
				if _, hit := truth[c.Instance]; hit && c.Critical {
					locHits++
					break
				}
			}
		}
		if !violated {
			return
		}
		if st.DetectMs < 0 {
			st.DetectMs = (now - start).Millis()
		}
		if now <= end+faultsweepWindow {
			st.Windows++
			st.Samples = append(st.Samples, violationFeatures(traces, cands, b.App.SLO))
		}
		if !mitigate {
			return
		}
		best := -1
		for i, c := range cands {
			if c.Critical && (best < 0 || c.Score > cands[best].Score) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		svcName := b.Cluster.ServiceName(cands[best].Service)
		if until, cooling := cooldown[svcName]; cooling && now < until {
			return
		}
		svc := spec.Services[svcName]
		rs := b.Cluster.ReplicaSet(svcName)
		if svc == nil || rs == nil {
			return
		}
		if _, err := rs.AddReplica(svc.Limits, false, false); err == nil {
			st.ScaleOuts++
			cooldown[svcName] = now + 4*sim.Second
		}
	})
	tick.Start()
	b.App.SetResultHook(func(r app.Result) {
		if !r.Dropped && b.Eng.Now() > start {
			lats = append(lats, r.Latency.Millis())
		}
	})

	b.Eng.RunFor(faultsweepWarmup + player.Horizon() + 3*sim.Second)
	tick.Stop()

	completed := b.App.Completed - baseCompleted
	violations := b.App.Violations - baseViolations
	if completed > 0 {
		st.BaseViol = float64(violations) / float64(completed)
	}
	if truthWindows > 0 {
		st.LocAcc = float64(locHits) / float64(truthWindows)
	}
	st.OOMKills = player.OOMKills
	st.Infections = player.Infections
	st.Completed = b.App.Completed
	st.Dropped = b.App.Dropped
	if len(lats) > 0 {
		st.P99Ms = stats.Percentile(lats, 99)
	}
	return st, nil
}

// violationFeatures summarizes one violated window as the vector the
// characterization clusters: localization signal strength (max RI, max
// scaled CI), tail overshoot, loss, and blast radius.
func violationFeatures(traces []*trace.Trace, cands []detect.Candidate, slo sim.Time) []float64 {
	var maxRI, maxCI float64
	critical := 0
	for _, c := range cands {
		if c.RI > maxRI {
			maxRI = c.RI
		}
		if c.CI > maxCI {
			maxCI = c.CI
		}
		if c.Critical {
			critical++
		}
	}
	var lats []float64
	dropped := 0
	for _, t := range traces {
		if t.Dropped {
			dropped++
			continue
		}
		lats = append(lats, t.Latency().Millis())
	}
	p99Ratio := 0.0
	if len(lats) > 0 && slo > 0 {
		p99Ratio = stats.Percentile(lats, 99) / slo.Millis()
		if p99Ratio > 10 {
			p99Ratio = 10
		}
	}
	dropFrac := 0.0
	if len(traces) > 0 {
		dropFrac = float64(dropped) / float64(len(traces))
	}
	critFrac := 0.0
	if len(cands) > 0 {
		critFrac = float64(critical) / float64(len(cands))
	}
	return []float64{maxRI, maxCI / detect.CIScale, p99Ratio, dropFrac, critFrac}
}

// faultsweepCell runs both arms of one scenario: the row is the base
// arm's, plus the mitigated arm's violation rate and scale-outs.
func faultsweepCell(entry scenario.Entry, p topology.Params, dur sim.Time, seed int64) (FaultSweepRow, error) {
	row, err := faultsweepArm(entry, p, dur, seed, false)
	if err != nil {
		return FaultSweepRow{}, err
	}
	mit, err := faultsweepArm(entry, p, dur, seed, true)
	if err != nil {
		return FaultSweepRow{}, err
	}
	row.MitViol, row.ScaleOuts = mit.BaseViol, mit.ScaleOuts
	if row.BaseViol > 0 {
		row.MitEffect = 1 - row.MitViol/row.BaseViol
	}
	return row, nil
}

// faultsweepShardedCell drives a scenario through the sharded engine: the
// player arms on the shard that owns the victim service, and — because
// scenario timers, rng streams, and pressure are all shard-local — the
// cell's row is byte-identical at any shard count. Only families without
// app hooks or replica churn run here (plateau + metastable overlay);
// that restriction is what keeps placement shard-count-invariant.
func faultsweepShardedCell(x Exec, p topology.Params, dur sim.Time, seed int64) (FaultSweepRow, error) {
	spec, err := topology.Generate(p, seed)
	if err != nil {
		return FaultSweepRow{}, err
	}
	b, err := harness.NewSharded(harness.ShardedOptions{Seed: seed, Spec: spec, Shards: x.shards()})
	if err != nil {
		return FaultSweepRow{}, fmt.Errorf("faultsweep sharded: %w", err)
	}
	victim := spec.Endpoints[0].Root.Service
	sh := b.ShardOf(victim)
	if sh < 0 {
		return FaultSweepRow{}, fmt.Errorf("faultsweep sharded: victim %s unplaced", victim)
	}
	sc := scenario.Overlay(
		scenario.Mode(scenario.Plateau, 0.7, dur).On(victim),
		scenario.Mode(scenario.Metastable, 0.8, dur).On(victim).After(dur/2),
	)
	player, err := scenario.NewPlayer(scenario.Env{
		Eng: b.Eng.Shard(sh), Cluster: b.Clusters[sh], Spec: spec,
	}, sc, seed)
	if err != nil {
		return FaultSweepRow{}, err
	}
	b.Eng.Shard(sh).Schedule(faultsweepWarmup, player.Arm)

	var lats []float64
	var dropped uint64
	b.App.SetResultHook(func(r app.Result) {
		if r.Dropped {
			dropped++
		} else {
			lats = append(lats, r.Latency.Millis())
		}
	})
	b.AttachWorkload(workload.Constant{RPS: 120})
	b.Run(faultsweepWarmup+player.Horizon()+3*sim.Second, x.Pool)

	row := FaultSweepRow{
		Name:      "sharded-" + sc.Key(),
		Family:    "sharded",
		Key:       sc.Key(),
		Services:  p.Services,
		DetectMs:  -1,
		LocAcc:    -1,
		Completed: uint64(len(lats)),
		Dropped:   dropped,
	}
	if len(lats) > 0 {
		row.P99Ms = stats.Percentile(lats, 99)
	}
	return row, nil
}

// faultsweepJobs declares the sweep's job list: one job per catalog
// scenario plus the sharded cell. Each derives its seed from (campaign
// seed, key), so cells are placement-independent; the sharded cell shards
// as the executing machine's x says because its row is shard-count-
// invariant.
func faultsweepJobs(x Exec, sc Scale, seed int64, _ noInput) ([]runner.Job[FaultSweepRow], error) {
	dur := sc.dur(30 * sim.Second)
	p := faultsweepTopology
	var jobs []runner.Job[FaultSweepRow]
	for _, e := range scenario.Catalog() {
		jobs = append(jobs, runner.Job[FaultSweepRow]{
			Key: runner.Key("faultsweep", e.Name, p.Key()),
			Run: func(jobSeed int64) (FaultSweepRow, error) {
				return faultsweepCell(e, p, dur, jobSeed)
			},
		})
	}
	ps := faultsweepShardedTopology
	jobs = append(jobs, runner.Job[FaultSweepRow]{
		Key: runner.Key("faultsweep", "sharded", ps.Key()),
		Run: func(jobSeed int64) (FaultSweepRow, error) {
			return faultsweepShardedCell(x, ps, dur, jobSeed)
		},
	})
	return jobs, nil
}

// FamilyCluster summarizes where one fault family's violation windows
// landed in the clustering.
type FamilyCluster struct {
	Family   string
	Samples  int
	Dominant int     // cluster id holding the family's plurality
	Purity   float64 // fraction of the family's samples in Dominant
	// ConfusedWith lists other families sharing the dominant cluster.
	ConfusedWith []string
}

// FaultSweepResult holds the sweep rows plus the k-means fault-family
// characterization.
type FaultSweepResult struct {
	Rows     []FaultSweepRow
	Clusters []FamilyCluster
	K        int
	Inertia  float64
}

// faultsweepReduce clusters the fault-scenario library sweep's violation
// feature vectors.
func faultsweepReduce(_ Scale, seed int64, _ noInput, rows []FaultSweepRow) (*FaultSweepResult, error) {
	res := &FaultSweepResult{Rows: rows}
	res.characterize(seed)
	return res, nil
}

// characterize clusters every violated window's feature vector with
// k = |families observed| and reduces the assignment to a per-family
// confusion summary. Clusters are relabeled by first appearance in
// family-sorted sample order, so ids are stable and seed-deterministic.
func (r *FaultSweepResult) characterize(seed int64) {
	var obs [][]float64
	var labels []string
	families := map[string]bool{}
	for _, row := range r.Rows {
		for _, s := range row.Samples {
			obs = append(obs, s)
			labels = append(labels, row.Family)
			families[row.Family] = true
		}
	}
	if len(obs) == 0 {
		return
	}
	r.K = len(families)
	rng := sim.Stream(sim.DeriveSeed(seed, "faultsweep-kmeans"), "kmeans")
	km := stats.KMeans(obs, r.K, rng, 200)
	r.Inertia = km.Inertia

	// Relabel cluster ids by first appearance so output is stable.
	relabel := map[int]int{}
	for _, a := range km.Assign {
		if _, ok := relabel[a]; !ok {
			relabel[a] = len(relabel)
		}
	}

	counts := map[string]map[int]int{}
	for i, fam := range labels {
		if counts[fam] == nil {
			counts[fam] = map[int]int{}
		}
		counts[fam][relabel[km.Assign[i]]]++
	}
	dominant := map[string]int{}
	for _, fam := range sortedKeys(counts) {
		best, bestN := -1, -1
		for c := 0; c < r.K; c++ { // id order: deterministic plurality ties
			if n := counts[fam][c]; n > bestN {
				best, bestN = c, n
			}
		}
		dominant[fam] = best
	}
	for _, fam := range sortedKeys(counts) {
		total := 0
		for _, n := range counts[fam] {
			total += n
		}
		fc := FamilyCluster{
			Family:   fam,
			Samples:  total,
			Dominant: dominant[fam],
			Purity:   float64(counts[fam][dominant[fam]]) / float64(total),
		}
		for _, other := range sortedKeys(counts) {
			if other != fam && dominant[other] == fc.Dominant {
				fc.ConfusedWith = append(fc.ConfusedWith, other)
			}
		}
		r.Clusters = append(r.Clusters, fc)
	}
	sort.Slice(r.Clusters, func(i, j int) bool { return r.Clusters[i].Family < r.Clusters[j].Family })
}

// Report converts the sweep into its typed record.
func (r *FaultSweepResult) Report() *report.Report {
	rep := report.New("faultsweep")
	for _, row := range r.Rows {
		rep.Row("scenario-"+row.Name).
			Dim("family", row.Family).
			Dim("key", row.Key).
			Val("services", "", float64(row.Services)).
			Val("detect", "ms", row.DetectMs).
			Val("loc-acc", "", row.LocAcc).
			Val("windows", "", float64(row.Windows)).
			Val("viol-base", "", row.BaseViol).
			Val("viol-mit", "", row.MitViol).
			Val("mit-effect", "", row.MitEffect).
			Val("scale-outs", "", float64(row.ScaleOuts)).
			Val("oom-kills", "", float64(row.OOMKills)).
			Val("infections", "", float64(row.Infections)).
			Val("completed", "req", float64(row.Completed)).
			Val("dropped", "req", float64(row.Dropped)).
			Val("p99", "ms", row.P99Ms)
	}
	rep.Row("kmeans").
		Val("k", "", float64(r.K)).
		Val("inertia", "", r.Inertia)
	for _, fc := range r.Clusters {
		row := rep.Row("family-"+fc.Family).
			Dim("family", fc.Family).
			Val("samples", "", float64(fc.Samples)).
			Val("cluster", "", float64(fc.Dominant)).
			Val("purity", "", fc.Purity)
		for _, other := range fc.ConfusedWith {
			row.Dim("confused-"+other, other)
		}
	}
	return rep
}
