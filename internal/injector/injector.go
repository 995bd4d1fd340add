// Package injector implements FIRM's performance anomaly injection framework
// (§3.6, Table 5): seven anomaly types of configurable intensity, duration,
// and timing that create resource-scarcity situations — the ground truth
// used to train the SVM localizer and the RL mitigation agent, and to drive
// the localization-accuracy experiments (Fig. 9).
//
// Each anomaly maps the paper's tooling to the simulated substrate:
//
//	Workload variation  (wrk2)        → workload-generator rate spike hook
//	Network delay       (tc)          → per-container RPC delay
//	CPU utilization     (iBench)      → container-targeted CPU stressor load
//	LLC bw/capacity     (iBench/pmbw) → container+node LLC pressure
//	Memory bandwidth    (iBench/pmbw) → container+node memory-BW pressure
//	I/O bandwidth       (Sysbench)    → container+node disk-BW pressure
//	Network bandwidth   (tc/Trickle)  → container+node network-BW pressure
package injector

import (
	"fmt"
	"math/rand"

	"firm/internal/cluster"
	"firm/internal/sim"
)

// Kind enumerates the Table 5 anomaly types.
type Kind int

// The seven anomaly types of Table 5.
const (
	Workload Kind = iota
	NetworkDelay
	CPUStress
	LLCStress
	MemBWStress
	IOStress
	NetBWStress
	NumKinds
)

var kindNames = [NumKinds]string{
	"workload", "net-delay", "cpu", "llc", "membw", "io", "netbw",
}

// String names the anomaly kind.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Injection describes one anomaly instance.
type Injection struct {
	Kind      Kind
	Target    *cluster.Container // nil for Workload (cluster-wide)
	Intensity float64            // in [0,1]
	Duration  sim.Time
	Start     sim.Time // filled by the injector
}

// ValidationError reports why an Injection was rejected. It is a typed
// error so callers can distinguish a malformed request from an actuation
// failure with errors.As.
type ValidationError struct {
	Field  string
	Reason string
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("injector: invalid injection: %s %s", e.Field, e.Reason)
}

// Validate rejects injections that would silently inject garbage: an
// out-of-range kind, an intensity outside [0,1] (NaN included), a
// non-positive duration, or a missing target for the container-targeted
// kinds (everything but Workload, which is cluster-wide by definition).
func (inj Injection) Validate() error {
	if inj.Kind < 0 || inj.Kind >= NumKinds {
		return &ValidationError{Field: "Kind", Reason: fmt.Sprintf("%d is not a Table 5 anomaly type", int(inj.Kind))}
	}
	if !(inj.Intensity >= 0 && inj.Intensity <= 1) { // NaN fails both comparisons
		return &ValidationError{Field: "Intensity", Reason: fmt.Sprintf("%v outside [0,1]", inj.Intensity)}
	}
	if inj.Duration <= 0 {
		return &ValidationError{Field: "Duration", Reason: fmt.Sprintf("%v is not positive", inj.Duration)}
	}
	if inj.Target == nil && inj.Kind != Workload {
		return &ValidationError{Field: "Target", Reason: fmt.Sprintf("nil for container-targeted kind %s", inj.Kind)}
	}
	return nil
}

// Record is a completed or active injection with ground-truth labeling info.
type Record struct {
	Injection
	End sim.Time
}

const (
	// MaxNetDelay is the delay injected at intensity 1 (tc netem scale).
	MaxNetDelay = 80 * sim.Millisecond
	// LoadScale is the injected load at intensity 1, as a multiple of the
	// target container's per-resource limit (iBench saturates and exceeds
	// the victim's share).
	LoadScale = 2.5
)

// Injector applies anomalies to the simulated cluster.
type Injector struct {
	eng *sim.Engine
	rng *rand.Rand

	// SpikeHook, when set, receives workload-variation anomalies: the
	// workload generator multiplies its rate by (1 + SpikeFactor*intensity)
	// for the duration.
	SpikeHook func(intensity float64, d sim.Time)

	history []Record
}

// New creates an injector with its own random stream.
func New(eng *sim.Engine, seed int64) *Injector {
	return &Injector{eng: eng, rng: sim.Stream(seed, "injector")}
}

// Reset returns the injector to what New(eng, seed) builds on its engine,
// which must have been reset: no history, no spike hook, its stream reseeded
// in place. A stop function Inject or Record returned before the Reset must
// not be called after it.
func (in *Injector) Reset(seed int64) {
	sim.Reseed(in.rng, seed, "injector")
	in.history = in.history[:0]
	in.SpikeHook = nil
}

// Inject starts an anomaly after validating it (a rejected injection
// actuates nothing and leaves no history). It returns a cancel function
// that ends the anomaly early (idempotent).
func (in *Injector) Inject(inj Injection) (func(), error) {
	if err := inj.Validate(); err != nil {
		return nil, err
	}
	inj.Start = in.eng.Now()
	in.history = append(in.history, Record{Injection: inj, End: inj.Start + inj.Duration})
	histIdx := len(in.history) - 1

	cleanup := in.apply(inj)
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		if cleanup != nil {
			cleanup()
		}
		// Clamp recorded end to actual stop time.
		if now := in.eng.Now(); now < in.history[histIdx].End {
			in.history[histIdx].End = now
		}
	}
	in.eng.Schedule(inj.Duration, stop)
	return stop, nil
}

// Record appends a ground-truth record for an anomaly actuated outside the
// injector — the scenario player (internal/scenario) drives its own ramps,
// feedback loops, and partitions, but shares the injector's history so SVM
// training labels and localization scoring read one source of truth. The
// injection is validated exactly like Inject; the returned stop clamps the
// record's end to the stop time (idempotent). Nothing is actuated.
func (in *Injector) Record(inj Injection) (func(), error) {
	if err := inj.Validate(); err != nil {
		return nil, err
	}
	inj.Start = in.eng.Now()
	in.history = append(in.history, Record{Injection: inj, End: inj.Start + inj.Duration})
	histIdx := len(in.history) - 1
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if now := in.eng.Now(); now < in.history[histIdx].End {
			in.history[histIdx].End = now
		}
	}, nil
}

// apply actuates the anomaly and returns its undo.
func (in *Injector) apply(inj Injection) func() {
	t := inj.Target
	switch inj.Kind {
	case Workload:
		if in.SpikeHook != nil {
			in.SpikeHook(inj.Intensity, inj.Duration)
		}
		return nil
	case NetworkDelay:
		if t == nil {
			return nil
		}
		prev := t.NetDelay()
		t.SetNetDelay(prev + sim.Time(float64(MaxNetDelay)*inj.Intensity))
		return func() { t.SetNetDelay(prev) }
	default:
		if t == nil {
			return nil
		}
		var r cluster.Resource
		switch inj.Kind {
		case CPUStress:
			r = cluster.CPU
		case LLCStress:
			r = cluster.LLC
		case MemBWStress:
			r = cluster.MemBW
		case IOStress:
			r = cluster.IOBW
		case NetBWStress:
			r = cluster.NetBW
		}
		var load cluster.Vector
		load[r] = inj.Intensity * LoadScale * t.Limits()[r]
		prev := t.InjectedLoad()
		t.SetInjectedLoad(prev.Add(load))
		return func() { t.SetInjectedLoad(t.InjectedLoad().Sub(load)) }
	}
}

// ActiveDuringOverlap returns the instances (by Container.ID) whose
// non-workload injection overlaps [lo, hi) by more than minOverlap — the
// ground-truth labeling used when scoring localization windows, so that an
// anomaly grazing a window edge does not count as the window's ground truth.
func (in *Injector) ActiveDuringOverlap(lo, hi, minOverlap sim.Time) map[uint32]Kind {
	out := map[uint32]Kind{}
	for _, rec := range in.history {
		if rec.Target == nil {
			continue
		}
		ovLo, ovHi := rec.Start, rec.End
		if lo > ovLo {
			ovLo = lo
		}
		if hi < ovHi {
			ovHi = hi
		}
		if ovHi-ovLo > minOverlap {
			out[rec.Target.ID] = rec.Kind
		}
	}
	return out
}

// History returns all injection records so far.
func (in *Injector) History() []Record { return append([]Record(nil), in.history...) }

// maxIntensity is the campaign's intensity ceiling: Table 5's intensities
// are fractions of full scale.
const maxIntensity = 1.0

// Campaign drives randomized injections: the §4.1 setup uses exponential
// inter-arrival (λ=0.33 s⁻¹ → mean 3.03 s) with anomaly type and intensity
// chosen uniformly at random over cluster containers. The type is any
// Table 5 kind but Workload, which the campaign never fires.
type Campaign struct {
	Injector *Injector
	// Targets are the candidate victim containers.
	Targets []*cluster.Container
	// MeanInterarrival between injection starts (default 3.03s ≈ λ=0.33).
	MeanInterarrival sim.Time
	// Duration bounds for each injection.
	MinDuration, MaxDuration sim.Time
	// MinIntensity is each injection's intensity floor (the ceiling is
	// maxIntensity).
	MinIntensity float64

	stopped bool
}

// DefaultCampaign builds the §4.1 randomized campaign over targets.
func DefaultCampaign(in *Injector, targets []*cluster.Container) *Campaign {
	return &Campaign{
		Injector:         in,
		Targets:          targets,
		MeanInterarrival: sim.FromSeconds(1 / 0.33),
		MinDuration:      2 * sim.Second,
		MaxDuration:      8 * sim.Second,
		MinIntensity:     0.4,
	}
}

// Start schedules the first injection; the campaign continues until Stop.
// It panics, naming the field, on a campaign that would livelock the engine
// (a non-positive MeanInterarrival draws every gap as 0) or draw injections
// Inject rejects: a non-positive MinDuration, a MaxDuration below it, or a
// MinIntensity outside [0, 1].
func (c *Campaign) Start() {
	switch {
	case c.MeanInterarrival <= 0:
		panic(fmt.Sprintf("injector: Campaign.MeanInterarrival %v is not positive", c.MeanInterarrival))
	case c.MinDuration <= 0:
		panic(fmt.Sprintf("injector: Campaign.MinDuration %v is not positive", c.MinDuration))
	case c.MaxDuration < c.MinDuration:
		panic(fmt.Sprintf("injector: Campaign.MaxDuration %v is below MinDuration %v", c.MaxDuration, c.MinDuration))
	case !(c.MinIntensity >= 0 && c.MinIntensity <= maxIntensity): // NaN fails both comparisons
		panic(fmt.Sprintf("injector: Campaign.MinIntensity %v outside [0,1]", c.MinIntensity))
	}
	if len(c.Targets) == 0 {
		return
	}
	c.scheduleNext()
}

// Stop prevents future injections (active ones run out their duration).
func (c *Campaign) Stop() { c.stopped = true }

func (c *Campaign) scheduleNext() {
	in := c.Injector
	delay := sim.Exponential(in.rng, c.MeanInterarrival)
	in.eng.Schedule(delay, func() {
		if c.stopped {
			return
		}
		c.fire()
		c.scheduleNext()
	})
}

func (c *Campaign) fire() {
	in := c.Injector
	k := Workload + 1 + Kind(in.rng.Intn(int(NumKinds-1)))
	t := c.Targets[in.rng.Intn(len(c.Targets))]
	dur := c.MinDuration + sim.Time(in.rng.Float64()*float64(c.MaxDuration-c.MinDuration))
	intensity := c.MinIntensity + in.rng.Float64()*(maxIntensity-c.MinIntensity)
	// Start validated what the draws are made from, so a rejection is a bug.
	if _, err := in.Inject(Injection{Kind: k, Target: t, Intensity: intensity, Duration: dur}); err != nil {
		panic(err)
	}
}
