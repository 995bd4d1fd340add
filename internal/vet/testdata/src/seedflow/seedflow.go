// Package seedflow is firmvet corpus: RNG constructions whose seeds must
// trace to sim.DeriveSeed, and the rejected shapes — constants, seed
// arithmetic, untraceable variables.
package seedflow

import (
	"math/rand"

	"firm/internal/sim"
)

type genCfg struct {
	NoiseSeed int64
	offset    int64
}

// badSeeds constructs four streams the analyzer must reject.
func badSeeds(c genCfg) []*rand.Rand {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(c.NoiseSeed + 1))
	mixed := c.offset
	d := rand.New(rand.NewSource(mixed))
	e := sim.Stream(1234, "corpus/bad")
	return []*rand.Rand{a, b, d, e}
}

// badValueStreams seeds two value-held streams the analyzer must reject: a
// constant at construction and arithmetic at reseed.
func badValueStreams(c genCfg) [2]sim.SplitMix64 {
	a := sim.NewSplitMix64(7)
	var b sim.SplitMix64
	b.Seed(c.NoiseSeed ^ 1)
	return [2]sim.SplitMix64{a, b}
}
