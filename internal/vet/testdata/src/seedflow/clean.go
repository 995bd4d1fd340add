package seedflow

import (
	"math/rand"

	"firm/internal/sim"
)

// goodSeeds constructs streams every accepted way: a direct DeriveSeed
// call, a sim.Stream with a seed-named parameter, a *Seed-carrying field,
// and a local traced back to DeriveSeed.
func goodSeeds(parentSeed int64, c genCfg) []*rand.Rand {
	a := rand.New(rand.NewSource(sim.DeriveSeed(parentSeed, "corpus/a")))
	b := sim.Stream(parentSeed, "corpus/b")
	d := rand.New(rand.NewSource(c.NoiseSeed))
	local := sim.DeriveSeed(parentSeed, "corpus/local")
	e := rand.New(rand.NewSource(local))
	return []*rand.Rand{a, b, d, e}
}

// goodValueStreams seeds value-held streams from DeriveSeed, keyed in parts,
// and reseeds one from a *Seed field.
func goodValueStreams(parentSeed int64, c genCfg) [2]sim.SplitMix64 {
	a := sim.NewSplitMix64(sim.DeriveSeed(parentSeed, "corpus/", "value", "/0"))
	var b sim.SplitMix64
	b.Seed(c.NoiseSeed)
	return [2]sim.SplitMix64{a, b}
}
