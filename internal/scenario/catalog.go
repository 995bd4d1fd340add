package scenario

import (
	"fmt"

	"firm/internal/sim"
)

// Entry is a named catalog scenario. Build produces a fresh Spec scaled
// to a base duration, so experiments at different scales share one
// catalog. FamilyLabel is the family the scenario exercises for
// characterization grouping (composites are labeled by their dominant
// part).
type Entry struct {
	Name        string
	Desc        string
	FamilyLabel string
	Build       func(d sim.Time) *Spec
}

// Catalog returns the named scenario library in stable order: the six
// single-family modes plus composite examples of the overlay and
// sequencing algebra. Victims are unpinned (chosen per seed), so a sweep
// over seeds exercises different parts of the topology.
func Catalog() []Entry {
	return []Entry{
		{
			Name:        "leak",
			Desc:        "gradual memory leak crash-looping through OOM kills",
			FamilyLabel: MemLeak.String(),
			Build: func(d sim.Time) *Spec {
				return Mode(MemLeak, 0.7, d)
			},
		},
		{
			Name:        "plateau",
			Desc:        "lock-contention plateau: compute inflation that saturates",
			FamilyLabel: Plateau.String(),
			Build: func(d sim.Time) *Spec {
				return Mode(Plateau, 0.6, d)
			},
		},
		{
			Name:        "retrystorm",
			Desc:        "client retry amplification against a pressured victim",
			FamilyLabel: RetryStorm.String(),
			Build: func(d sim.Time) *Spec {
				return Mode(RetryStorm, 0.6, d)
			},
		},
		{
			Name:        "cascade",
			Desc:        "failure cascading to callers along dependency edges",
			FamilyLabel: Cascade.String(),
			Build: func(d sim.Time) *Spec {
				return Mode(Cascade, 0.8, d).WithProb(0.6)
			},
		},
		{
			Name:        "metastable",
			Desc:        "overload pinned by feedback after the trigger clears",
			FamilyLabel: Metastable.String(),
			Build: func(d sim.Time) *Spec {
				return Mode(Metastable, 0.8, d)
			},
		},
		{
			Name:        "partition",
			Desc:        "partial partition: delay+loss on edges into the victim",
			FamilyLabel: Partition.String(),
			Build: func(d sim.Time) *Spec {
				return Mode(Partition, 0.7, d)
			},
		},
		{
			Name:        "leak-under-plateau",
			Desc:        "overlay: a leak growing while a plateau holds CPU",
			FamilyLabel: MemLeak.String(),
			Build: func(d sim.Time) *Spec {
				return Overlay(
					Mode(MemLeak, 0.7, d),
					Mode(Plateau, 0.5, d/2).After(d/4),
				)
			},
		},
		{
			Name:        "cascade-then-partition",
			Desc:        "sequence: a cascade, a lull, then a partition",
			FamilyLabel: Cascade.String(),
			Build: func(d sim.Time) *Spec {
				return Sequence(d/4,
					Mode(Cascade, 0.8, d/2).WithProb(0.6),
					Mode(Partition, 0.7, d/2),
				)
			},
		},
	}
}

// ByName returns the named catalog entry.
func ByName(name string) (Entry, bool) {
	for _, e := range Catalog() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Describe renders the catalog as "name: desc [key at 30s]" lines for CLI
// listings.
func Describe() []string {
	es := Catalog()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%-22s %s  [%s]", e.Name, e.Desc, e.Build(30*sim.Second).Key())
	}
	return out
}
