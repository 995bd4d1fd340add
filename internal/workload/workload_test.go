package workload

import (
	"math"
	"math/rand"
	"testing"

	"firm/internal/app"
	"firm/internal/cluster"
	"firm/internal/sim"
	"firm/internal/telemetry"
	"firm/internal/topology"
	"firm/internal/trace"
	"firm/internal/tracedb"
)

func newApp(t *testing.T) (*sim.Engine, *app.App) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.NoiseSD = 0
	cl := cluster.New(eng, cfg)
	for i := 0; i < 3; i++ {
		cl.AddNode(cluster.XeonProfile)
	}
	db := tracedb.New(tracedb.Forever, 0)
	coord := trace.NewCoordinator(eng, db, cl)
	a, err := app.Deploy(eng, cl, topology.HotelReservation(), coord)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a
}

func mustSpikes(t *testing.T, base Pattern, factor float64, meanGap, spikeLen, horizon sim.Time, seed int64) *Spikes {
	t.Helper()
	s, err := NewSpikes(base, factor, meanGap, spikeLen, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConstantPattern(t *testing.T) {
	p := Constant{RPS: 100}
	if p.Rate(0) != 100 || p.Rate(sim.Hour) != 100 {
		t.Fatal("constant rate")
	}
	if p.MaxRate() != 100 {
		t.Fatal("constant max rate")
	}
	if (Constant{RPS: -5}).Rate(0) != 0 {
		t.Fatal("negative RPS must clamp to zero")
	}
}

func TestDiurnalPattern(t *testing.T) {
	p := Diurnal{Base: 100, Amplitude: 50, Period: sim.Minute}
	peak := p.Rate(sim.Minute / 4)
	trough := p.Rate(3 * sim.Minute / 4)
	if math.Abs(peak-150) > 1 || math.Abs(trough-50) > 1 {
		t.Fatalf("diurnal peak %v trough %v", peak, trough)
	}
	if p.MaxRate() != 150 {
		t.Fatalf("diurnal max rate %v", p.MaxRate())
	}
	// Never negative even with Amplitude > Base.
	p2 := Diurnal{Base: 10, Amplitude: 100, Period: sim.Minute}
	if p2.Rate(3*sim.Minute/4) != 0 {
		t.Fatal("diurnal must clamp at zero")
	}
}

// TestDiurnalDegeneratePeriod pins the documented clamp rule: a zero or
// negative Period disables the oscillation instead of dividing by zero
// (the old code returned NaN and silently poisoned the arrival process).
func TestDiurnalDegeneratePeriod(t *testing.T) {
	for _, period := range []sim.Time{0, -sim.Second} {
		p := Diurnal{Base: 80, Amplitude: 40, Period: period}
		for _, at := range []sim.Time{0, sim.Second, sim.Minute} {
			if got := p.Rate(at); got != 80 {
				t.Fatalf("Period=%v Rate(%v) = %v, want 80 (and never NaN)", period, at, got)
			}
		}
		if got := p.MaxRate(); got != 80 {
			t.Fatalf("Period=%v MaxRate = %v, want 80", period, got)
		}
	}
	if got := (Diurnal{Base: -5, Amplitude: 1, Period: 0}).Rate(0); got != 0 {
		t.Fatalf("negative Base with degenerate Period must clamp to 0, got %v", got)
	}
}

func TestRampPattern(t *testing.T) {
	p := Ramp{From: 0, To: 100, Duration: 10 * sim.Second}
	if p.Rate(0) != 0 || p.Rate(5*sim.Second) != 50 || p.Rate(sim.Minute) != 100 {
		t.Fatal("ramp interpolation")
	}
	if p.MaxRate() != 100 {
		t.Fatalf("ramp max rate %v", p.MaxRate())
	}
	if (Ramp{From: 200, To: 50, Duration: sim.Second}).MaxRate() != 200 {
		t.Fatal("descending ramp max rate must be From")
	}
}

// TestRampDegenerateDuration pins the documented clamp rule: non-positive
// Duration is an immediate step to To, with no division by zero.
func TestRampDegenerateDuration(t *testing.T) {
	for _, dur := range []sim.Time{0, -sim.Second} {
		p := Ramp{From: 10, To: 70, Duration: dur}
		for _, at := range []sim.Time{0, sim.Millisecond, sim.Minute} {
			if got := p.Rate(at); got != 70 {
				t.Fatalf("Duration=%v Rate(%v) = %v, want 70 (and never NaN)", dur, at, got)
			}
		}
	}
}

func TestSpikesPattern(t *testing.T) {
	s := mustSpikes(t, Constant{RPS: 10}, 5, 10*sim.Second, sim.Second, sim.Minute, 3)
	if len(s.windows) == 0 {
		t.Fatal("no spike windows generated")
	}
	inSpike, outSpike := false, false
	for at := sim.Time(0); at < sim.Minute; at += 100 * sim.Millisecond {
		switch s.Rate(at) {
		case 50:
			inSpike = true
		case 10:
			outSpike = true
		}
	}
	if !inSpike || !outSpike {
		t.Fatalf("spike coverage: in=%v out=%v", inSpike, outSpike)
	}
	if got := s.MaxRate(); got != 50 {
		t.Fatalf("spikes max rate %v, want 50", got)
	}
	// An attenuating factor (< 1) bounds at the base rate.
	att := mustSpikes(t, Constant{RPS: 10}, 0.5, 10*sim.Second, sim.Second, sim.Minute, 3)
	if got := att.MaxRate(); got != 10 {
		t.Fatalf("attenuating spikes max rate %v, want 10", got)
	}
}

// TestNewSpikesRejectsDegenerateParams pins the constructor fix: the
// (meanGap <= 0, spikeLen == 0) combination used to loop forever because
// Exponential returns 0 for a non-positive mean and the window cursor never
// advanced. All degenerate parameters now error instead.
func TestNewSpikesRejectsDegenerateParams(t *testing.T) {
	base := Constant{RPS: 10}
	cases := []struct {
		name                       string
		factor                     float64
		meanGap, spikeLen, horizon sim.Time
	}{
		{"zero mean gap, zero spike len (the infinite loop)", 2, 0, 0, sim.Minute},
		{"negative mean gap", 2, -sim.Second, sim.Second, sim.Minute},
		{"negative spike len", 2, sim.Second, -sim.Second, sim.Minute},
		{"negative factor", -1, sim.Second, sim.Second, sim.Minute},
		{"NaN factor", math.NaN(), sim.Second, sim.Second, sim.Minute},
		{"negative horizon", 2, sim.Second, sim.Second, -sim.Minute},
	}
	for _, tc := range cases {
		if _, err := NewSpikes(base, tc.factor, tc.meanGap, tc.spikeLen, tc.horizon, 3); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	if _, err := NewSpikes(nil, 2, sim.Second, sim.Second, sim.Minute, 3); err == nil {
		t.Error("nil base: want error, got nil")
	}
	// Zero spike length with a positive gap is legal (windows are empty
	// intervals) and must terminate.
	if _, err := NewSpikes(base, 2, sim.Second, 0, sim.Minute, 3); err != nil {
		t.Errorf("zero spike len with positive gap: %v", err)
	}
}

// TestSpikesBinarySearchMatchesScan cross-checks the binary-search window
// lookup against the linear scan it replaced, over every window edge and a
// dense grid.
func TestSpikesBinarySearchMatchesScan(t *testing.T) {
	s := mustSpikes(t, Constant{RPS: 7}, 3, 2*sim.Second, 300*sim.Millisecond, 2*sim.Minute, 11)
	scan := func(at sim.Time) float64 {
		r := s.Base.Rate(at)
		for _, w := range s.windows {
			if at >= w.lo && at < w.hi {
				return r * s.Factor
			}
		}
		return r
	}
	var probes []sim.Time
	for _, w := range s.windows {
		probes = append(probes, w.lo-1, w.lo, w.lo+1, w.hi-1, w.hi, w.hi+1)
	}
	for at := sim.Time(0); at < 2*sim.Minute; at += 50 * sim.Millisecond {
		probes = append(probes, at)
	}
	for _, at := range probes {
		if got, want := s.Rate(at), scan(at); got != want {
			t.Fatalf("Rate(%v) = %v, linear scan says %v", at, got, want)
		}
	}
}

func TestSumAndScaled(t *testing.T) {
	p := Sum{Constant{RPS: 30}, Ramp{From: 0, To: 20, Duration: 10 * sim.Second}}
	if got := p.Rate(5 * sim.Second); got != 40 {
		t.Fatalf("sum rate %v, want 40", got)
	}
	if got := p.MaxRate(); got != 50 {
		t.Fatalf("sum max rate %v, want 50", got)
	}
	s := Scaled{P: p, K: 2}
	if got := s.Rate(5 * sim.Second); got != 80 {
		t.Fatalf("scaled rate %v, want 80", got)
	}
	if got := s.MaxRate(); got != 100 {
		t.Fatalf("scaled max rate %v, want 100", got)
	}
	for _, k := range []float64{-1, math.NaN()} {
		bad := Scaled{P: Constant{RPS: 10}, K: k}
		if bad.Rate(0) != 0 || bad.MaxRate() != 0 {
			t.Fatalf("K=%v must clamp to zero", k)
		}
	}
}

func TestFlashCrowdShape(t *testing.T) {
	f := FlashCrowd{
		Base:  Constant{RPS: 50},
		Peak:  200,
		Start: 10 * sim.Second, RampUp: 2 * sim.Second,
		Hold: 4 * sim.Second, Decay: 2 * sim.Second,
	}
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{0, 50},                 // before onset
		{10 * sim.Second, 50},   // onset instant: ramp starts at base
		{11 * sim.Second, 150},  // mid-ramp
		{12 * sim.Second, 250},  // crest
		{14 * sim.Second, 250},  // plateau
		{17 * sim.Second, 150},  // mid-decay
		{18*sim.Second + 1, 50}, // after decay
		{sim.Minute, 50},        // long after
	}
	for _, tc := range cases {
		if got := f.Rate(tc.at); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Rate(%v) = %v, want %v", tc.at, got, tc.want)
		}
	}
	if got := f.MaxRate(); got != 250 {
		t.Fatalf("flash-crowd max rate %v, want 250", got)
	}
	// Degenerate phases: everything non-positive is a step function.
	step := FlashCrowd{Base: Constant{RPS: 10}, Peak: 90, Start: sim.Second, Hold: 2 * sim.Second}
	if step.Rate(sim.Second) != 100 || step.Rate(2*sim.Second) != 100 || step.Rate(3*sim.Second+1) != 10 {
		t.Fatal("step-shaped crowd (RampUp=Decay=0) wrong")
	}
	if (FlashCrowd{Base: Constant{RPS: 10}, Peak: -5, Start: 0, Hold: sim.Second}).Rate(0) != 10 {
		t.Fatal("negative Peak must clamp to zero surge")
	}
}

func TestSessionsStream(t *testing.T) {
	users := Constant{RPS: 5} // 5 users/s
	s, err := NewSessions(users, 4, 2*sim.Second, sim.Minute, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic per seed; a different seed differs.
	s2, err := NewSessions(users, 4, 2*sim.Second, sim.Minute, 17)
	if err != nil {
		t.Fatal(err)
	}
	for at := sim.Time(0); at < sim.Minute; at += 100 * sim.Millisecond {
		if s.Rate(at) != s2.Rate(at) {
			t.Fatal("same seed must produce identical session streams")
		}
	}
	s3, err := NewSessions(users, 4, 2*sim.Second, sim.Minute, 18)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for at := sim.Time(0); at < sim.Minute; at += 100 * sim.Millisecond {
		if s.Rate(at) != s3.Rate(at) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("neighboring seeds must produce different session streams")
	}
	// Mean active sessions ≈ userRate × sessionLen = 10, so the mid-run
	// rate should hover near 40 rps; MaxRate must dominate every step.
	var sum float64
	var n int
	maxSeen := 0.0
	for at := 10 * sim.Second; at < 50*sim.Second; at += 100 * sim.Millisecond {
		r := s.Rate(at)
		sum += r
		n++
		if r > maxSeen {
			maxSeen = r
		}
		if r < 0 {
			t.Fatal("negative session rate")
		}
		if want := math.Round(r/4) * 4; math.Abs(r-want) > 1e-6 {
			t.Fatalf("Rate(%v)=%v is not a whole number of sessions at 4 rps each", at, r)
		}
	}
	mean := sum / float64(n)
	if mean < 20 || mean > 60 {
		t.Fatalf("mean session rate %v, want ≈40", mean)
	}
	if s.MaxRate() < maxSeen {
		t.Fatalf("MaxRate %v below observed %v", s.MaxRate(), maxSeen)
	}
	// Past the horizon the stream drains to zero once sessions expire.
	if got := s.Rate(sim.Minute + 10*sim.Second); got != 0 {
		t.Fatalf("rate beyond horizon+sessionLen = %v, want 0", got)
	}
	// Degenerate parameters error.
	if _, err := NewSessions(users, 0, sim.Second, sim.Minute, 1); err == nil {
		t.Fatal("zero per-user RPS must error")
	}
	if _, err := NewSessions(users, 4, 0, sim.Minute, 1); err == nil {
		t.Fatal("zero session length must error")
	}
	if _, err := NewSessions(users, 4, sim.Second, 0, 1); err == nil {
		t.Fatal("zero horizon must error")
	}
	if _, err := NewSessions(Constant{RPS: 0}, 4, sim.Second, sim.Minute, 1); err == nil {
		t.Fatal("zero user rate must error")
	}
	if _, err := NewSessions(nil, 4, sim.Second, sim.Minute, 1); err == nil {
		t.Fatal("nil user pattern must error")
	}
}

func TestGeneratorOpenLoopRate(t *testing.T) {
	eng, a := newApp(t)
	meter := telemetry.NewMeter(eng, sim.Second, []string{"search-hotels", "recommend", "reserve"})
	g := NewGenerator(a, Constant{RPS: 200}, meter, 5)
	g.Start()
	eng.RunUntil(20 * sim.Second)
	g.Stop()
	got := float64(g.Submitted) / 20
	if math.Abs(got-200) > 20 {
		t.Fatalf("generated %v req/s, want ≈200", got)
	}
	if r := meter.Rate(); math.Abs(r-200) > 40 {
		t.Fatalf("meter rate %v", r)
	}
	eng.RunUntil(40 * sim.Second)
	after := g.Submitted
	eng.RunUntil(60 * sim.Second)
	if g.Submitted != after {
		t.Fatal("generator fired after Stop")
	}
}

// TestGeneratorRestartKeepsOneArrivalChain: a Constant generator restarted
// while an arrival is pending — Stop then Start, or a second Start — must
// retire that arrival, not run it next to the new chain at twice the rate.
func TestGeneratorRestartKeepsOneArrivalChain(t *testing.T) {
	for name, restart := range map[string]func(*Generator){
		"stop-start":   func(g *Generator) { g.Stop(); g.Start() },
		"double-start": func(g *Generator) { g.Start() },
	} {
		eng, a := newApp(t)
		g := NewGenerator(a, Constant{RPS: 100}, nil, 5)
		g.Start()
		eng.RunUntil(sim.Second)
		restart(g)
		before := g.Submitted
		eng.RunUntil(11 * sim.Second)
		if got := float64(g.Submitted-before) / 10; math.Abs(got-100) > 15 {
			t.Errorf("%s: %v req/s after the restart, want ≈100", name, got)
		}
	}
}

func TestGeneratorSpike(t *testing.T) {
	eng, a := newApp(t)
	g := NewGenerator(a, Constant{RPS: 100}, nil, 6)
	g.Start()
	eng.RunUntil(10 * sim.Second)
	base := g.Submitted
	if err := g.Spike(3, 10*sim.Second); err != nil { // 4x rate for 10s
		t.Fatal(err)
	}
	eng.RunUntil(20 * sim.Second)
	spiked := g.Submitted - base
	eng.RunUntil(30 * sim.Second)
	recovered := g.Submitted - base - spiked
	if float64(spiked) < 2.5*float64(recovered) {
		t.Fatalf("spike window %d vs recovered %d: spike not applied", spiked, recovered)
	}
}

// TestGeneratorSpikeRejectsDegenerateFactor: a factor of -1 or below, NaN or
// ±Inf would zero or poison the rate multiplier — at -1 the Constant path
// used to draw 1 µs gaps (≈ a million submissions in the next second at
// 100 rps) and the thinned path to idle forever. Spike rejects such a factor
// and changes nothing, on both paths; -0.5 still halves the rate and then
// restores it.
func TestGeneratorSpikeRejectsDegenerateFactor(t *testing.T) {
	for _, p := range []Pattern{Constant{RPS: 100}, Ramp{From: 100, To: 100, Duration: sim.Second}} {
		for _, tc := range []struct {
			factor float64
			ok     bool
			during float64 // multiplier while the spike lasts
		}{
			{-1, false, 1}, {-2, false, 1}, {math.NaN(), false, 1}, {math.Inf(1), false, 1}, {math.Inf(-1), false, 1},
			{-0.5, true, 0.5},
		} {
			eng, a := newApp(t)
			g := NewGenerator(a, p, nil, 6)
			g.Start()
			eng.RunUntil(10 * sim.Second)
			before := g.Submitted
			err := g.Spike(tc.factor, 10*sim.Second)
			if (err == nil) != tc.ok || g.spikeMul != tc.during {
				t.Fatalf("%T: Spike(%v): err=%v multiplier %v; want ok=%v multiplier %v", p, tc.factor, err, g.spikeMul, tc.ok, tc.during)
			}
			eng.RunUntil(20 * sim.Second)
			if got, want := float64(g.Submitted-before)/10, 100*tc.during; math.Abs(got-want) > 0.2*want {
				t.Fatalf("%T: Spike(%v): %v req/s during the spike, want ≈%v", p, tc.factor, got, want)
			}
			if g.spikeMul != 1 {
				t.Fatalf("%T: Spike(%v): multiplier %v after the spike, want 1", p, tc.factor, g.spikeMul)
			}
		}
	}
}

// countingTarget admits every request and does nothing else: what a
// generator allocates against it is its own.
type countingTarget struct{ eng *sim.Engine }

func (c countingTarget) Engine() *sim.Engine { return c.eng }
func (c countingTarget) SubmitMix(r *rand.Rand, _ func(app.Result)) (string, error) {
	r.Float64() // the endpoint draw a real app makes
	return "get", nil
}

// TestGeneratorWarmEventsAllocateNothing: every generator event — Constant
// arrivals, thinned candidates, a spike's expiry — is a pooled record, so a
// warm generator allocates nothing per event, and the pool holds only the
// most events ever pending at once.
func TestGeneratorWarmEventsAllocateNothing(t *testing.T) {
	for _, p := range []Pattern{Constant{RPS: 1000}, Diurnal{Base: 800, Amplitude: 400, Period: sim.Second}} {
		eng := sim.NewEngine(1)
		g := NewGenerator(countingTarget{eng}, p, nil, 3)
		g.Start()
		spike := func() {
			if err := g.Spike(1, 50*sim.Millisecond); err != nil {
				t.Fatal(err)
			}
			eng.RunFor(100 * sim.Millisecond)
		}
		spike() // warm: the event pool and the engine's heap
		before := g.Submitted
		if allocs := testing.AllocsPerRun(20, spike); allocs != 0 {
			t.Fatalf("%T: %v allocs per 100 ms of arrivals, want 0", p, allocs)
		}
		if g.Submitted-before < 20*100 {
			t.Fatalf("%T: %d arrivals in 2.1 s, want ≥ 2000", p, g.Submitted-before)
		}
		if n := len(g.free) + eng.Pending(); n > 4 {
			t.Fatalf("%T: %d generator events pooled or pending, want at most a few", p, n)
		}
	}
}

// TestGeneratorSpikeOnThinnedPattern is TestGeneratorSpike on the thinning
// path (a non-Constant pattern): Spike re-anchors the envelope, so the
// multiplier applies from the spike instant rather than one arrival later.
func TestGeneratorSpikeOnThinnedPattern(t *testing.T) {
	eng, a := newApp(t)
	g := NewGenerator(a, Ramp{From: 100, To: 100, Duration: sim.Second}, nil, 6)
	g.Start()
	eng.RunUntil(10 * sim.Second)
	base := g.Submitted
	if err := g.Spike(3, 10*sim.Second); err != nil { // 4x rate for 10s
		t.Fatal(err)
	}
	eng.RunUntil(20 * sim.Second)
	spiked := g.Submitted - base
	eng.RunUntil(30 * sim.Second)
	recovered := g.Submitted - base - spiked
	if float64(spiked) < 2.5*float64(recovered) {
		t.Fatalf("spike window %d vs recovered %d: spike not applied", spiked, recovered)
	}
}

// TestGeneratorZeroRateIdles: a Constant whose rate is zero, NaN, or +Inf
// submits nothing and polls instead of spinning (a NaN or infinite rate
// used to make the exponential gap 0, so an arrival fired every
// microsecond), and wakes when the pattern is swapped for a live one.
func TestGeneratorZeroRateIdles(t *testing.T) {
	for _, rps := range []float64{0, math.NaN(), math.Inf(1)} {
		eng, a := newApp(t)
		g := NewGenerator(a, Constant{RPS: rps}, nil, 7)
		g.Start()
		eng.RunUntil(5 * sim.Second)
		if g.Submitted != 0 || eng.Steps() > 100 {
			t.Fatalf("rps %v: submitted %d in %d engine steps, want 0 submitted while polling", rps, g.Submitted, eng.Steps())
		}
		// Pattern coming alive later must resume arrivals.
		g.Pattern = Constant{RPS: 50}
		eng.RunUntil(10 * sim.Second)
		if g.Submitted == 0 {
			t.Fatalf("rps %v: generator did not wake up from idle polling", rps)
		}
	}
}

// TestGeneratorZeroBoundIdles is the thinning-path analogue: a pattern
// whose bound is zero or +Inf idles without spinning, and wakes when the
// pattern is swapped for a live one.
func TestGeneratorZeroBoundIdles(t *testing.T) {
	for _, to := range []float64{0, math.Inf(1)} {
		eng, a := newApp(t)
		g := NewGenerator(a, Ramp{From: 0, To: to, Duration: sim.Second}, nil, 7)
		g.Start()
		eng.RunUntil(5 * sim.Second)
		if g.Submitted != 0 || eng.Steps() > 100 {
			t.Fatalf("ramp to %v: submitted %d in %d engine steps, want 0 submitted while polling", to, g.Submitted, eng.Steps())
		}
		g.Pattern = Ramp{From: 50, To: 50, Duration: sim.Second}
		eng.RunUntil(10 * sim.Second)
		if g.Submitted == 0 {
			t.Fatalf("ramp to %v: generator did not wake up from idle polling", to)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func(p Pattern) uint64 {
		eng, a := newApp(t)
		g := NewGenerator(a, p, nil, 9)
		g.Start()
		eng.RunUntil(10 * sim.Second)
		return g.Submitted
	}
	if run(Constant{RPS: 150}) != run(Constant{RPS: 150}) {
		t.Fatal("same seed must generate identical arrivals")
	}
	ramp := Ramp{From: 20, To: 300, Duration: 8 * sim.Second}
	if run(ramp) != run(ramp) {
		t.Fatal("same seed must generate identical thinned arrivals")
	}
}

// integrateRate numerically integrates a pattern's intensity over [0, T],
// returning the expected arrival count of the ideal process.
func integrateRate(p Pattern, T sim.Time) float64 {
	const step = sim.Millisecond
	var total float64
	for at := sim.Time(0); at < T; at += step {
		total += p.Rate(at+step/2) * step.Seconds()
	}
	return total
}

// checkRealizedRate runs the generator over pattern p for T and asserts the
// realized arrival count is within Poisson noise (4σ, floored at 5%) of the
// integrated intensity — the thinning correctness contract. The stale-rate
// sampler this replaced failed this on steep ramps and flash-crowd fronts:
// it lagged one inter-arrival gap behind the intensity and idle-polled at
// 100ms across spike onsets.
func checkRealizedRate(t *testing.T, name string, p Pattern, T sim.Time, seed int64) {
	t.Helper()
	eng, a := newApp(t)
	g := NewGenerator(a, p, nil, seed)
	g.Start()
	eng.RunUntil(T)
	g.Stop()
	want := integrateRate(p, T)
	got := float64(g.Submitted)
	tol := math.Max(0.05*want, 4*math.Sqrt(want))
	if math.Abs(got-want) > tol {
		t.Errorf("%s: realized %v arrivals, want %v ± %v", name, got, want, tol)
	}
}

func TestThinningTracksRamp(t *testing.T) {
	checkRealizedRate(t, "steep ramp",
		Ramp{From: 0, To: 400, Duration: 10 * sim.Second}, 20*sim.Second, 21)
}

func TestThinningTracksFlashCrowd(t *testing.T) {
	checkRealizedRate(t, "flash crowd",
		FlashCrowd{
			Base:  Constant{RPS: 40},
			Peak:  300,
			Start: 5 * sim.Second, RampUp: 500 * sim.Millisecond,
			Hold: 4 * sim.Second, Decay: 2 * sim.Second,
		}, 15*sim.Second, 22)
}

func TestThinningTracksDiurnal(t *testing.T) {
	checkRealizedRate(t, "diurnal",
		Diurnal{Base: 120, Amplitude: 80, Period: 10 * sim.Second}, 20*sim.Second, 23)
}

// TestThinningTracksSpikeFront drives a pattern that is silent, then
// erupts: the front of the eruption must not be clipped by idle polling
// (the old sampler slept 100ms at a time through rate-zero stretches and
// then scheduled its first post-spike arrival at the pre-spike rate).
func TestThinningTracksSpikeFront(t *testing.T) {
	p := FlashCrowd{
		Base:  Constant{RPS: 0},
		Peak:  500,
		Start: 5 * sim.Second, RampUp: 0, // a hard step
		Hold: sim.Second, Decay: 0,
	}
	eng, a := newApp(t)
	g := NewGenerator(a, p, nil, 24)
	g.Start()
	eng.RunUntil(5 * sim.Second)
	if g.Submitted != 0 {
		t.Fatalf("arrivals before the spike: %d", g.Submitted)
	}
	// First 100ms of the spike carries ≈50 expected arrivals; the old
	// sampler could realize 0 here when its idle poll straddled the onset.
	eng.RunUntil(5*sim.Second + 100*sim.Millisecond)
	front := g.Submitted
	if front < 25 {
		t.Fatalf("spike front clipped: %d arrivals in the first 100ms, want ≈50", front)
	}
	eng.RunUntil(7 * sim.Second)
	total := float64(g.Submitted)
	if math.Abs(total-500) > 4*math.Sqrt(500) {
		t.Fatalf("spike total %v, want ≈500", total)
	}
}
