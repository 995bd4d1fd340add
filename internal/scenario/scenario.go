// Package scenario is a registry of named, seeded, composable degradation
// modes layered on top of internal/injector. Where the injector models the
// paper's seven single-shot anomaly types (§3.6, Table 5), production
// outages are compound: memory leaks grow until the OOM killer fires,
// lock-contention plateaus saturate rather than spike, client retries
// amplify overload into storms, failures cascade along dependency edges,
// metastable overload persists after its trigger clears, and partitions
// degrade specific network paths. Each mode here is a Spec — a value with
// a stable Key() usable as a distributed campaign job (mirroring
// topology.Params) — and Specs compose through a small algebra:
// Sequence(...) plays parts one after another, Overlay(...) plays them
// concurrently, and After(d) delays a part. A Player drives a composed
// Spec through sim.Engine timers, so runs are deterministic per
// (Spec, seed) under any worker or shard count, and nothing changes for
// experiments that never arm a scenario.
package scenario

import (
	"fmt"
	"strings"

	"firm/internal/sim"
)

// Family enumerates the degradation modes.
type Family int

// The degradation-mode families.
const (
	// MemLeak ramps memory pressure on the victim until the OOM killer
	// recycles the container (crash-loop: the leak restarts after each
	// kill).
	MemLeak Family = iota
	// Plateau is lock-contention-shaped compute inflation: it saturates at
	// its intensity instead of spiking, mimicking a convoy on a hot lock.
	Plateau
	// RetryStorm arms client-side retries and provokes drops on the
	// victim, so offered load amplifies exactly when capacity is short.
	RetryStorm
	// Cascade degrades the victim and then propagates the degradation to
	// its callers along dependency edges with per-edge probability.
	Cascade
	// Metastable pins the victim's utilization with a feedback term after
	// the initial trigger clears, releasing only when utilization falls
	// below the sustain threshold.
	Metastable
	// Partition degrades the network paths into the victim: added delay
	// and probabilistic loss on each caller→victim edge.
	Partition
	// NumFamilies bounds the enum.
	NumFamilies
)

var familyNames = [NumFamilies]string{
	"memleak", "plateau", "retrystorm", "cascade", "metastable", "partition",
}

// String names the family.
func (f Family) String() string {
	if f < 0 || f >= NumFamilies {
		return fmt.Sprintf("family(%d)", int(f))
	}
	return familyNames[f]
}

// Op classifies a Spec node: a leaf degradation mode or a composition.
type Op int

// Spec node kinds.
const (
	// Atom is a single degradation mode.
	Atom Op = iota
	// SeqOp plays Parts one after another, Gap apart.
	SeqOp
	// OverlayOp plays Parts concurrently from the same start.
	OverlayOp
)

// Spec is a composable scenario description. It is pure data: building or
// composing Specs touches no simulation state, and the same (Spec, seed)
// pair always replays the same run. The zero Spec is invalid; build Specs
// with Mode, Sequence, and Overlay.
type Spec struct {
	Op     Op
	Family Family // Atom only

	// Target is the victim service. Empty means the Player picks one
	// deterministically from (seed, Key()).
	Target string

	// Intensity in (0,1] scales the mode's pressure, delay, and loss.
	Intensity float64

	// Duration is the atom's active window. For Metastable it is the full
	// potential window (trigger plus maximum pinned phase); for MemLeak it
	// spans the whole crash-loop.
	Duration sim.Time

	// Offset delays this node relative to where its parent schedules it
	// (see After).
	Offset sim.Time

	// Gap separates consecutive parts of a Sequence.
	Gap sim.Time

	// Prob is the per-edge propagation probability for Cascade.
	Prob float64

	Parts []*Spec
}

// Mode builds an atom of the given family with no victim pinned (the
// Player picks one per seed). Chain On, After, and WithProb to refine it.
func Mode(f Family, intensity float64, d sim.Time) *Spec {
	return &Spec{Op: Atom, Family: f, Intensity: intensity, Duration: d}
}

// Sequence plays parts one after another with gap between them.
func Sequence(gap sim.Time, parts ...*Spec) *Spec {
	return &Spec{Op: SeqOp, Gap: gap, Parts: parts}
}

// Overlay plays parts concurrently from the same start time.
func Overlay(parts ...*Spec) *Spec {
	return &Spec{Op: OverlayOp, Parts: parts}
}

// On pins the victim service and returns s for chaining.
func (s *Spec) On(target string) *Spec {
	s.Target = target
	return s
}

// After delays this node by d relative to its scheduled slot and returns
// s for chaining. Inside an Overlay this staggers parts; at the top level
// it delays the whole scenario.
func (s *Spec) After(d sim.Time) *Spec {
	s.Offset += d
	return s
}

// WithProb sets the cascade per-edge propagation probability and returns
// s for chaining.
func (s *Spec) WithProb(p float64) *Spec {
	s.Prob = p
	return s
}

// Key renders the spec as a stable, "/"-free identifier usable as a
// distributed campaign job key (runner.Key joins segments with "/").
// Atoms render their parameters; compositions nest as op(part+part).
func (s *Spec) Key() string {
	var b strings.Builder
	s.writeKey(&b)
	return b.String()
}

func (s *Spec) writeKey(b *strings.Builder) {
	switch s.Op {
	case Atom:
		fmt.Fprintf(b, "%s-i%g-d%gs", s.Family, s.Intensity, s.Duration.Seconds())
		if s.Target != "" {
			fmt.Fprintf(b, "-t%s", s.Target)
		}
		if s.Prob != 0 {
			fmt.Fprintf(b, "-p%g", s.Prob)
		}
	case SeqOp:
		b.WriteString("seq")
		if s.Gap != 0 {
			fmt.Fprintf(b, "-g%gs", s.Gap.Seconds())
		}
		if s.Target != "" {
			fmt.Fprintf(b, "-t%s", s.Target)
		}
	case OverlayOp:
		b.WriteString("ovl")
		if s.Target != "" {
			fmt.Fprintf(b, "-t%s", s.Target)
		}
	}
	if s.Offset != 0 {
		fmt.Fprintf(b, "-o%gs", s.Offset.Seconds())
	}
	if s.Op != Atom {
		b.WriteByte('(')
		for i, p := range s.Parts {
			if i > 0 {
				b.WriteByte('+')
			}
			p.writeKey(b)
		}
		b.WriteByte(')')
	}
}

// Validate rejects malformed specs: unknown families, intensities outside
// (0,1], non-positive durations, negative offsets or gaps, cascade
// probabilities outside [0,1], targets containing "/" (which would break
// campaign job keys), and empty compositions.
func (s *Spec) Validate() error {
	if s.Offset < 0 {
		return fmt.Errorf("scenario: negative offset %v", s.Offset)
	}
	switch s.Op {
	case Atom:
		if s.Family < 0 || s.Family >= NumFamilies {
			return fmt.Errorf("scenario: unknown family %d", int(s.Family))
		}
		if !(s.Intensity > 0 && s.Intensity <= 1) { // NaN fails both
			return fmt.Errorf("scenario: %s intensity %v outside (0,1]", s.Family, s.Intensity)
		}
		if s.Duration <= 0 {
			return fmt.Errorf("scenario: %s duration %v is not positive", s.Family, s.Duration)
		}
		if !(s.Prob >= 0 && s.Prob <= 1) {
			return fmt.Errorf("scenario: %s probability %v outside [0,1]", s.Family, s.Prob)
		}
		if strings.Contains(s.Target, "/") {
			return fmt.Errorf("scenario: target %q contains '/'", s.Target)
		}
		if len(s.Parts) != 0 {
			return fmt.Errorf("scenario: atom %s has %d parts", s.Family, len(s.Parts))
		}
	case SeqOp, OverlayOp:
		if len(s.Parts) == 0 {
			return fmt.Errorf("scenario: empty composition")
		}
		if s.Gap < 0 {
			return fmt.Errorf("scenario: negative gap %v", s.Gap)
		}
		for _, p := range s.Parts {
			if p == nil {
				return fmt.Errorf("scenario: nil part")
			}
			if err := p.Validate(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("scenario: unknown op %d", int(s.Op))
	}
	return nil
}

// Span is the total scheduled extent of the spec from its slot start:
// offset plus duration for atoms, offset plus the parts' arrangement for
// compositions.
func (s *Spec) Span() sim.Time {
	switch s.Op {
	case Atom:
		return s.Offset + s.Duration
	case SeqOp:
		total := s.Offset
		for i, p := range s.Parts {
			if i > 0 {
				total += s.Gap
			}
			total += p.Span()
		}
		return total
	case OverlayOp:
		var max sim.Time
		for _, p := range s.Parts {
			if sp := p.Span(); sp > max {
				max = sp
			}
		}
		return s.Offset + max
	}
	return 0
}

// Atoms flattens the composition into absolutely-timed atom slots,
// in deterministic (start-agnostic) traversal order.
func (s *Spec) Atoms() []TimedAtom {
	var out []TimedAtom
	s.flatten(0, "", &out)
	return out
}

// TimedAtom is one leaf mode with its absolute start offset within the
// scenario. Target is the effective victim: the leaf's own pin, or the
// nearest enclosing composition's — On() on a Sequence or Overlay pins
// every part that has not pinned its own.
type TimedAtom struct {
	Spec   *Spec
	Start  sim.Time
	Target string
}

func (s *Spec) flatten(t0 sim.Time, inherit string, out *[]TimedAtom) {
	t := t0 + s.Offset
	if s.Target != "" {
		inherit = s.Target
	}
	switch s.Op {
	case Atom:
		*out = append(*out, TimedAtom{Spec: s, Start: t, Target: inherit})
	case SeqOp:
		for i, p := range s.Parts {
			if i > 0 {
				t += s.Gap
			}
			p.flatten(t, inherit, out)
			t += p.Span()
		}
	case OverlayOp:
		for _, p := range s.Parts {
			p.flatten(t, inherit, out)
		}
	}
}
