package workload

import (
	"math"
	"math/rand"
	"testing"

	"firm/internal/sim"
)

// randomPattern builds a random composition of every pattern kind, depth
// levels deep at most. Parameters range over negative values too, so the
// clamping rules are part of what is checked.
func randomPattern(t *testing.T, r *rand.Rand, depth int, horizon sim.Time) Pattern {
	rps := func() float64 { return 400*r.Float64() - 50 }
	dur := func() sim.Time { return sim.Time(r.Int63n(int64(horizon))) - horizon/10 }
	kind := r.Intn(8)
	if depth == 0 {
		kind = r.Intn(3) // leaves only
	}
	switch kind {
	case 0:
		return Constant{RPS: rps()}
	case 1:
		return Diurnal{Base: rps(), Amplitude: rps(), Period: dur()}
	case 2:
		return Ramp{From: rps(), To: rps(), Duration: dur()}
	case 3:
		sum := make(Sum, 1+r.Intn(3))
		for i := range sum {
			sum[i] = randomPattern(t, r, depth-1, horizon)
		}
		return sum
	case 4:
		return Scaled{P: randomPattern(t, r, depth-1, horizon), K: 4*r.Float64() - 1}
	case 5:
		return FlashCrowd{Base: randomPattern(t, r, depth-1, horizon), Peak: rps(),
			Start: dur(), RampUp: dur(), Hold: dur(), Decay: dur()}
	case 6:
		s, err := NewSpikes(randomPattern(t, r, depth-1, horizon), 4*r.Float64(),
			1+sim.Time(r.Int63n(int64(horizon/4))), sim.Time(r.Int63n(int64(horizon/8))), horizon, r.Int63())
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		users := randomPattern(t, r, depth-1, horizon)
		if !(users.MaxRate() > 0) {
			users = Constant{RPS: 1 + 20*r.Float64()}
		}
		s, err := NewSessions(users, 0.1+5*r.Float64(), 1+sim.Time(r.Int63n(int64(horizon/4))), horizon, r.Int63())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

// TestRateBoundedByMaxRate: on random compositions of every pattern, Rate
// is non-negative and at most MaxRate at random times, and MaxRate is
// finite. The generator thins candidates drawn at MaxRate, so a Rate above
// the bound would be silently clipped.
func TestRateBoundedByMaxRate(t *testing.T) {
	const horizon = 20 * sim.Second
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 200; i++ {
		p := randomPattern(t, r, 3, horizon)
		bound := p.MaxRate()
		if math.IsNaN(bound) || math.IsInf(bound, 0) || bound < 0 {
			t.Fatalf("pattern %d (%#v): MaxRate %v, want finite and non-negative", i, p, bound)
		}
		for j := 0; j < 200; j++ {
			at := sim.Time(r.Int63n(int64(horizon + horizon/4)))
			if rate := p.Rate(at); !(rate >= 0 && rate <= bound) {
				t.Fatalf("pattern %d (%#v): Rate(%v) = %v outside [0, MaxRate %v]", i, p, at, rate, bound)
			}
		}
	}
}
