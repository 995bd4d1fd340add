package sim

import "math/rand"

// Stream derives an independent deterministic RNG from a parent seed and a
// label hash. Components that need their own randomness (workload generator,
// injector, RL exploration noise, per-shard engine streams) take a Stream so
// that adding events to one component does not perturb the random sequence
// observed by another. The seed is derived with DeriveSeed, whose SplitMix64
// finalizer guarantees near-identical labels ("shard/1"/"shard/2",
// "noise/svc-011/0"/"noise/svc-012/0") still yield uncorrelated streams —
// the previous multiply-add fold had no finalizer, so labels differing only
// in their last runes produced seeds differing in a handful of low bits.
func Stream(seed int64, label string) *rand.Rand {
	return rand.New(rand.NewSource(DeriveSeed(seed, label)))
}

// Reseed restarts r, in place, as the stream Stream(seed, label) returns —
// for a component that is reset rather than rebuilt and keeps its *rand.Rand.
func Reseed(r *rand.Rand, seed int64, label string) {
	r.Seed(DeriveSeed(seed, label))
}

// DeriveSeed deterministically derives an independent seed from a campaign
// seed and a stable key, given whole or in parts (the parts fold as their
// concatenation, so a caller on a hot path need not build it). The key bytes
// are folded FNV-1a style and the result is passed through the SplitMix64
// finalizer, so near-identical keys ("rep-1"/"rep-2", per-service names
// differing in one rune) still yield uncorrelated seeds. internal/runner uses
// it to give every job of a campaign its own private seed, and
// core.PerService to give every tailored agent its own weight-init
// stream.
func DeriveSeed(seed int64, key ...string) int64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < 8; i++ {
		h = (h ^ (uint64(seed) >> (8 * i) & 0xff)) * 1099511628211
	}
	for _, part := range key {
		for i := 0; i < len(part); i++ {
			h = (h ^ uint64(part[i])) * 1099511628211
		}
	}
	return int64(mix64(h + 0x9e3779b97f4a7c15))
}

// mix64 is the SplitMix64 output function (Steele et al.): full-avalanche
// mixing of one 64-bit word.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is a rand.Source64 with eight bytes of state, for streams that
// exist once per model object — a 10,000-service deployment holds 10,000
// service-time noise streams, and math/rand's own source is a 4.9 KB table
// each. Hold it by value and draw through a Sampler. It passes BigCrush and
// has period 2^64; a stream is never drawn from anywhere near that often.
type SplitMix64 struct{ s uint64 }

// NewSplitMix64 returns a stream seeded with seed (a DeriveSeed result).
func NewSplitMix64(seed int64) SplitMix64 { return SplitMix64{uint64(seed)} }

// Seed restarts the stream at seed.
func (s *SplitMix64) Seed(seed int64) { s.s = uint64(seed) }

// Uint64 returns the next 64 bits.
//
//firmvet:noalloc
func (s *SplitMix64) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	return mix64(s.s)
}

// Int63 returns the next 63 bits.
func (s *SplitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Sampler lends math/rand's distributions to streams held by value: On(s)
// returns a *rand.Rand whose draws advance s, valid until the next On. The
// Rand keeps no state of its own between draws, so one Sampler serves any
// number of streams — on one goroutine — and a stream costs only its 8 bytes.
type Sampler struct {
	*SplitMix64 // the stream draws advance; with it a Sampler is a rand.Source64
	r           *rand.Rand
}

// NewSampler returns a Sampler with no stream selected.
func NewSampler() *Sampler {
	p := new(Sampler)
	p.r = rand.New(p)
	return p
}

// On selects s as the stream the returned Rand draws from.
//
//firmvet:noalloc
func (p *Sampler) On(s *SplitMix64) *rand.Rand {
	p.SplitMix64 = s
	return p.r
}

// Exponential draws an exponentially distributed duration with the given
// mean. It is used for Poisson arrival processes and the anomaly-injection
// inter-arrival distribution (the paper uses λ=0.33 s⁻¹).
func Exponential(r *rand.Rand, mean Time) Time {
	if mean <= 0 {
		return 0
	}
	return Time(r.ExpFloat64() * float64(mean))
}

// NormalClamped draws from N(mean, sd) truncated at lo and hi.
func NormalClamped(r *rand.Rand, mean, sd, lo, hi float64) float64 {
	v := r.NormFloat64()*sd + mean
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
