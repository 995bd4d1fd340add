package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestDeriveSeedStable(t *testing.T) {
	// Same (seed, key) must always map to the same value — job seeds are
	// part of experiment identity and must survive process restarts.
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		for _, key := range []string{"", "fig5", "fig5/social-network/cpu/250/up/rep0"} {
			a, b := DeriveSeed(seed, key), DeriveSeed(seed, key)
			if a != b {
				t.Fatalf("DeriveSeed(%d, %q) unstable: %d vs %d", seed, key, a, b)
			}
		}
	}
}

func TestDeriveSeedDistinctKeys(t *testing.T) {
	// Near-identical keys (the common job-key shape) must yield distinct
	// seeds: a collision would silently correlate two "independent" runs.
	seen := map[int64]string{}
	n := 0
	for i := 0; i < 200; i++ {
		for _, prefix := range []string{"rep", "policy", "kind/a", "kind/b"} {
			key := fmt.Sprintf("%s-%d", prefix, i)
			s := DeriveSeed(7, key)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %q and %q -> %d", prev, key, s)
			}
			seen[s] = key
			n++
		}
	}
	if len(seen) != n {
		t.Fatalf("expected %d distinct seeds, got %d", n, len(seen))
	}
}

func TestDeriveSeedDistinctCampaigns(t *testing.T) {
	// The same key under different campaign seeds must differ (reps of a
	// whole campaign at different -seed values stay independent).
	if DeriveSeed(1, "job") == DeriveSeed(2, "job") {
		t.Fatal("campaign seed must perturb derived seeds")
	}
}

func TestStreamDeterministic(t *testing.T) {
	a, b := Stream(3, "x"), Stream(3, "x")
	for i := 0; i < 16; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("Stream must be deterministic per (seed, label)")
		}
	}
}

// The reference SplitMix64 (Steele, Lea & Flood; Vigna's splitmix64.c) from
// states 0 and 1234567: a wrong constant or shift shows in the first word.
func TestSplitMix64KnownAnswers(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want [4]uint64
	}{
		{0, [4]uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec}},
		{1234567, [4]uint64{6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431}},
	} {
		s := NewSplitMix64(c.seed)
		var again SplitMix64
		again.Seed(c.seed)
		for i, want := range c.want {
			if got := s.Uint64(); got != want {
				t.Fatalf("seed %d: output %d = %#x, want %#x", c.seed, i, got, want)
			}
			if got := again.Int63(); got != int64(want>>1) {
				t.Fatalf("seed %d after Seed: Int63 %d = %#x, want the top 63 bits of %#x", c.seed, i, got, want)
			}
		}
	}
}

// momentsOf draws n clamped normals the way a container draws its noise.
func momentsOf(r *rand.Rand, n int) (mean, sd float64) {
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := NormalClamped(r, 1, 0.06, 0.5, 2)
		sum += v
		sq += v * v
	}
	mean = sum / float64(n)
	return mean, math.Sqrt(sq/float64(n) - mean*mean)
}

// A SplitMix64 stream behind a Sampler yields the distribution a math/rand
// source does: 10⁶ service-time noise draws agree in mean and SD to 1 %.
func TestSamplerMatchesMathRandMoments(t *testing.T) {
	const n = 1_000_000
	s := NewSplitMix64(DeriveSeed(42, "noise/svc-011/0"))
	mean, sd := momentsOf(NewSampler().On(&s), n)
	refMean, refSD := momentsOf(Stream(42, "noise/svc-011/0"), n)
	if math.Abs(mean-refMean) > 0.01*refMean || math.Abs(sd-refSD) > 0.01*refSD {
		t.Fatalf("mean %.5f sd %.5f, math/rand draws mean %.5f sd %.5f: more than 1%% apart", mean, sd, refMean, refSD)
	}
}

// One Sampler serves many streams: interleaved draws leave each stream
// exactly where drawing from it alone would, and drawing allocates nothing.
func TestSamplerInterleavesStreams(t *testing.T) {
	p := NewSampler()
	start, b := NewSplitMix64(DeriveSeed(1, "a")), NewSplitMix64(DeriveSeed(1, "b"))
	a, alone := start, start
	var want, got [32]float64
	for i := range want {
		want[i] = p.On(&alone).NormFloat64()
	}
	allocs := testing.AllocsPerRun(1, func() {
		a = start
		for i := range got {
			got[i] = p.On(&a).NormFloat64()
			p.On(&b).ExpFloat64()
		}
	})
	if got != want || allocs != 0 {
		t.Fatalf("interleaved draws differ from the stream drawn alone, or allocated (%v allocs)", allocs)
	}
}

// Streams of adjacent labels — two neighbouring services' replica 0 — share
// no output and are uncorrelated.
func TestSplitMix64AdjacentLabelsUncorrelated(t *testing.T) {
	const n = 20000
	a := NewSplitMix64(DeriveSeed(42, "noise/", "svc-011", "/", "0"))
	b := NewSplitMix64(DeriveSeed(42, "noise/svc-012/0"))
	if whole := NewSplitMix64(DeriveSeed(42, "noise/svc-011/0")); whole != a {
		t.Fatal("DeriveSeed of a key in parts differs from the key whole")
	}
	pa, pb := NewSampler(), NewSampler()
	var sa, sb, saa, sbb, sab float64
	for i := 0; i < n; i++ {
		x, y := pa.On(&a).NormFloat64(), pb.On(&b).NormFloat64()
		sa, sb, saa, sbb, sab = sa+x, sb+y, saa+x*x, sbb+y*y, sab+x*y
	}
	cov := sab/n - sa/n*sb/n
	r := cov / math.Sqrt((saa/n-sa/n*sa/n)*(sbb/n-sb/n*sb/n))
	if math.Abs(r) > 0.03 { // 4 standard errors at n = 20,000
		t.Fatalf("adjacent-label streams correlate: r = %.4f", r)
	}
}
