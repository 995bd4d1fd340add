// Package detect implements FIRM's critical component extractor (§3.3,
// Alg. 2): given a window of execution history graphs, it determines which
// microservice instances on (or behind) the critical path are likely causes
// of SLO violations.
//
// Two per-instance features drive the binary decision:
//
//   - Relative importance (RI): the Pearson correlation between the
//     instance's span latency and the end-to-end CP latency — how much of
//     the CP's variance the instance explains.
//   - Congestion intensity (CI): the instance's 99th-percentile span latency
//     divided by its median — tail amplification in its request queue.
//
// The (RI, CI) pair feeds an incremental SVM (internal/svm) whose positive
// class means "reprovision this instance" (Alg. 2 line 10).
package detect

import (
	"sort"

	"firm/internal/cpath"
	"firm/internal/sim"
	"firm/internal/stats"
	"firm/internal/svm"
	"firm/internal/trace"
)

const (
	// minSamples is the minimum number of spans an instance needs in the
	// window before it can be scored (percentiles are meaningless below it).
	minSamples = 8
	// CIScale divides CI before it reaches the SVM so both features are
	// O(1); the same scaling must be used in training and inference.
	CIScale = 5
)

// Config tunes the extractor.
type Config struct {
	// IncludeBackground scores instances that appear only in background
	// spans (§3.2: background workflows may still be culprits).
	IncludeBackground bool
}

// DefaultConfig returns the extractor configuration used in experiments.
func DefaultConfig() Config {
	return Config{IncludeBackground: true}
}

// Candidate is one scored microservice instance, named by the IDs its spans
// carried (cluster.Container.ID, cluster.ReplicaSet.ID). Candidate lists are
// ordered by instance name.
type Candidate struct {
	Instance uint32
	Service  uint32
	RI       float64 // relative importance (PCC with CP latency)
	CI       float64 // congestion intensity (T99/T50)
	Score    float64 // SVM margin; >0 → critical
	Critical bool
}

// Extractor detects SLO violations and localizes culprit instances.
type Extractor struct {
	cfg Config
	svm *svm.SVM
}

// New creates an extractor around a (possibly pre-trained) SVM.
func New(cfg Config, model *svm.SVM) *Extractor {
	return &Extractor{cfg: cfg, svm: model}
}

// SVM exposes the underlying model (for online Fit during training
// campaigns and threshold sweeps in the ROC experiment).
func (e *Extractor) SVM() *svm.SVM { return e.svm }

// Violated reports whether the window's tail latency breaches the SLO:
// P99(end-to-end) > SLO, or any request was dropped.
func Violated(traces []*trace.Trace, slo sim.Time) bool {
	var lats []float64
	for _, t := range traces {
		if t.Dropped {
			return true
		}
		lats = append(lats, t.Latency().Millis())
	}
	if len(lats) == 0 {
		return false
	}
	return stats.Percentile(lats, 99) > slo.Millis()
}

// instanceStats accumulates per-instance observations across the window.
type instanceStats struct {
	service   uint32
	durations []float64 // all span durations (ms) in the window
	perTrace  []float64 // CP-aligned: duration in traces where on CP
	cpLats    []float64 // matching end-to-end latencies
	bgOnly    bool
}

// Features computes (RI, CI) per instance over the window. Instances enter
// the table when they appear on some trace's critical path; with
// IncludeBackground, instances observed only in background spans are scored
// too (their RI uses end-to-end latency of their traces).
func (e *Extractor) Features(traces []*trace.Trace) []Candidate {
	table := map[uint32]*instanceStats{}
	var names trace.Names
	get := func(inst, svc uint32, bg bool) *instanceStats {
		st, ok := table[inst]
		if !ok {
			st = &instanceStats{service: svc, bgOnly: true}
			table[inst] = st
		}
		if !bg {
			st.bgOnly = false
		}
		return st
	}

	var cp cpath.Extractor // one child index per trace, storage reused across the window
	var self []sim.Time
	for _, t := range traces {
		if t.Dropped {
			continue
		}
		names = t.Names
		p := cp.Extract(t)
		spans := cp.Kids.Spans()
		// Per-instance latencies are exclusive (self) times: a parent span
		// waiting on a slow child must not inherit the child's anomaly
		// signature (cf. Table 1's per-service "individual latency").
		self = cp.Kids.SelfDurations(self)
		onCP := map[uint32]sim.Time{}
		for _, i := range p.Index {
			onCP[spans[i].Instance] += self[i]
		}
		e2e := t.Latency().Millis()
		for i, s := range spans {
			st := get(s.Instance, uint32(s.Service), s.Background)
			st.durations = append(st.durations, self[i].Millis())
		}
		for inst, d := range onCP {
			st := table[inst]
			st.perTrace = append(st.perTrace, d.Millis())
			st.cpLats = append(st.cpLats, e2e)
		}
		// Background spans correlate against the same trace's e2e latency.
		for i, s := range spans {
			if s.Background {
				st := table[s.Instance]
				st.perTrace = append(st.perTrace, self[i].Millis())
				st.cpLats = append(st.cpLats, e2e)
			}
		}
	}

	var out []Candidate
	for inst, st := range table {
		if len(st.durations) < minSamples || len(st.perTrace) < minSamples {
			continue
		}
		if st.bgOnly && !e.cfg.IncludeBackground {
			continue
		}
		ri, err := stats.Pearson(st.perTrace, st.cpLats)
		if err != nil {
			continue
		}
		t50 := stats.Percentile(st.durations, 50)
		t99 := stats.Percentile(st.durations, 99)
		ci := 1.0
		if t50 > 0 {
			ci = t99 / t50
		}
		out = append(out, Candidate{Instance: inst, Service: st.service, RI: ri, CI: ci})
	}
	sort.Slice(out, func(i, j int) bool {
		return names.InstanceName(out[i].Instance) < names.InstanceName(out[j].Instance)
	})
	return out
}

// featVec maps a candidate to the SVM input space.
func (e *Extractor) featVec(c Candidate) []float64 {
	return []float64{c.RI, c.CI / CIScale}
}

// Candidates runs Alg. 2: score every instance in the window and mark those
// the SVM classifies as needing reprovisioning.
func (e *Extractor) Candidates(traces []*trace.Trace) []Candidate {
	cands := e.Features(traces)
	for i := range cands {
		score, err := e.svm.Decision(e.featVec(cands[i]))
		if err != nil {
			continue
		}
		cands[i].Score = score
		cands[i].Critical = score > 0
	}
	return cands
}

// Train applies one online SVM update for a candidate with ground-truth
// label (true = the instance was under injected contention). This is how
// injection campaigns generate training data (§3.6).
func (e *Extractor) Train(c Candidate, culprit bool) error {
	y := -1.0
	if culprit {
		y = 1.0
	}
	return e.svm.Fit(e.featVec(c), y)
}

// Pretrain bootstraps the SVM with the structural prior the paper's
// features encode: instances with high congestion intensity whose latency
// strongly correlates with CP latency are culprits; low-CI or uncorrelated
// instances are not. Synthetic samples are drawn around those regimes so
// that the extractor is usable before any campaign data arrives.
func (e *Extractor) Pretrain(seed int64, n int) error {
	r := sim.Stream(seed, "svm-pretrain")
	for i := 0; i < n; i++ {
		culprit := r.Intn(2) == 1
		var ri, ci float64
		if culprit {
			ri = sim.NormalClamped(r, 0.75, 0.15, -1, 1)
			ci = sim.NormalClamped(r, 8, 3, 1, 40)
		} else {
			ri = sim.NormalClamped(r, 0.15, 0.25, -1, 1)
			ci = sim.NormalClamped(r, 1.8, 0.8, 1, 40)
		}
		if err := e.Train(Candidate{RI: ri, CI: ci}, culprit); err != nil {
			return err
		}
	}
	return nil
}
