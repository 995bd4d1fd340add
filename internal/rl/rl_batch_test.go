package rl

import (
	"bytes"
	"math/rand"
	"testing"

	"firm/internal/nn"
)

// tinyCfg keeps equivalence tests fast while exercising real layer shapes.
func tinyCfg(seed int64) Config {
	cfg := DefaultConfig()
	cfg.StateDim = 6
	cfg.ActionDim = 3
	cfg.Hidden = 10
	cfg.BatchSize = 8
	cfg.BufferCap = 128
	cfg.ActorDelay = 3
	cfg.Seed = seed
	return cfg
}

func fillBuffer(a *Agent, n int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	cfg := a.Config()
	for k := 0; k < n; k++ {
		tr := Transition{
			S:    make([]float64, cfg.StateDim),
			A:    make([]float64, cfg.ActionDim),
			S2:   make([]float64, cfg.StateDim),
			R:    r.NormFloat64(),
			Done: r.Intn(5) == 0,
		}
		for i := range tr.S {
			tr.S[i] = r.NormFloat64()
			tr.S2[i] = r.NormFloat64()
		}
		for i := range tr.A {
			tr.A[i] = 2*r.Float64() - 1
		}
		a.Observe(tr)
	}
}

func mustSave(t *testing.T, a *Agent) Snapshot {
	t.Helper()
	s, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TrainStepSequential is the pre-batching per-sample reference update, the
// oracle the equivalence tests pin the batched TrainStep against bit for
// bit. It consumes the identical RNG stream as TrainStep and must produce
// identical weights.
func (a *Agent) TrainStepSequential() (criticLoss float64, ok bool) {
	var in, gact, ginSeq []float64
	var gout [1]float64
	if a.buf.Len() < a.cfg.BatchSize {
		return 0, false
	}
	a.batch = a.buf.SampleInto(a.rng, a.cfg.BatchSize, a.batch[:0])
	batch := a.batch
	n := float64(len(batch))

	// Critic update: minimize (y_i - Q(s_i, a_i))^2.
	if cap(a.targets) < len(batch) {
		a.targets = make([]float64, len(batch))
	}
	targets := a.targets[:len(batch)]
	for i, tr := range batch {
		y := tr.R
		if !tr.Done {
			a2 := a.actorT.Forward(tr.S2)
			in = append(in[:0], tr.S2...)
			in = append(in, a2...)
			y += a.cfg.Gamma * a.criticT.Forward(in)[0]
		}
		targets[i] = y
	}
	a.critic.ZeroGrad()
	for i, tr := range batch {
		in = append(in[:0], tr.S...)
		in = append(in, tr.A...)
		q := a.critic.Forward(in)[0]
		d := q - targets[i]
		criticLoss += d * d / n
		gout[0] = 2 * d / n
		a.critic.Backward(gout[:])
	}
	a.optC.Step()

	// Actor update: maximize Q(s, π(s)) → gradient ascent via chain rule
	// through a frozen critic (its grads are discarded after extraction).
	// Policy updates are delayed until the critic has seen enough batches.
	if a.Updates < a.cfg.ActorDelay {
		a.Updates++
		if err := a.criticT.SoftUpdate(a.critic, tau); err != nil {
			panic(err)
		}
		return criticLoss, true
	}
	a.actor.ZeroGrad()
	for _, tr := range batch {
		act := a.actor.Forward(tr.S)
		in = append(in[:0], tr.S...)
		in = append(in, act...)
		a.critic.ZeroGrad()
		a.critic.Forward(in)
		gout[0] = 1
		ginSeq = a.critic.BackwardInto(gout[:], ginSeq)
		gact = gact[:0]
		for _, g := range ginSeq[len(tr.S):] {
			gact = append(gact, -g/n) // minimize -Q
		}
		a.actor.Backward(gact)
	}
	a.critic.ZeroGrad() // drop contamination from dQ/da extraction
	a.optA.Step()

	// Soft target updates.
	if err := a.actorT.SoftUpdate(a.actor, tau); err != nil {
		panic(err)
	}
	if err := a.criticT.SoftUpdate(a.critic, tau); err != nil {
		panic(err)
	}
	a.Updates++
	return criticLoss, true
}

// TestTrainStepBatchedMatchesSequentialBitwise is the core minibatch
// equivalence pin: the batched TrainStep and the retained per-sample
// reference must consume the same RNG stream and land on byte-identical
// weights after every step, across the ActorDelay boundary (steps 1-3 are
// critic-only, later steps run the actor phase too).
func TestTrainStepBatchedMatchesSequentialBitwise(t *testing.T) {
	ab := New(tinyCfg(21))
	as := New(tinyCfg(21))
	fillBuffer(ab, 40, 99)
	fillBuffer(as, 40, 99)
	for step := 0; step < 10; step++ {
		lb, okB := ab.TrainStep()
		ls, okS := as.TrainStepSequential()
		if okB != okS || lb != ls {
			t.Fatalf("step %d: loss/ok diverge: batched (%v,%v) sequential (%v,%v)", step, lb, okB, ls, okS)
		}
		sb, ss := mustSave(t, ab), mustSave(t, as)
		if !bytes.Equal(sb.Actor, ss.Actor) {
			t.Fatalf("step %d: actor weights diverge", step)
		}
		if !bytes.Equal(sb.Critic, ss.Critic) {
			t.Fatalf("step %d: critic weights diverge", step)
		}
	}
	if ab.Updates != 10 || as.Updates != 10 {
		t.Fatalf("updates: batched %d sequential %d, want 10", ab.Updates, as.Updates)
	}
}

// TestTrainStepBatchedMatchesAtPaperBatchSize repeats the equivalence pin at
// the paper's batch 64 and network shape — the configuration the goldens
// and benchmarks actually run.
func TestTrainStepBatchedMatchesAtPaperBatchSize(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.ActorDelay = 2
	ab := New(cfg)
	as := New(cfg)
	fillBuffer(ab, 4*cfg.BatchSize, 123)
	fillBuffer(as, 4*cfg.BatchSize, 123)
	for step := 0; step < 5; step++ {
		ab.TrainStep()
		as.TrainStepSequential()
	}
	sb, ss := mustSave(t, ab), mustSave(t, as)
	if !bytes.Equal(sb.Actor, ss.Actor) || !bytes.Equal(sb.Critic, ss.Critic) {
		t.Fatal("batch-64 weights diverge from sequential reference")
	}
}

// TestTrainStepSteadyStateAllocFree pins the PR 5 discipline on the batched
// path: after warmup, a TrainStep allocates nothing.
func TestTrainStepSteadyStateAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ActorDelay = 0
	ag := New(cfg)
	fillBuffer(ag, 4*cfg.BatchSize, 7)
	ag.TrainStep()
	allocs := testing.AllocsPerRun(10, func() { ag.TrainStep() })
	if allocs != 0 {
		t.Fatalf("steady-state batched TrainStep allocates %v per run, want 0", allocs)
	}
}

// TestPretrainActorChunkedMatchesPerSample pins the epoch-driven behaviour
// cloning against an inline per-sample replica of the pre-batching loop at
// every worker width — more workers than the 600 rows have blocks included:
// same RNG consumption, same epoch gradient, byte-identical weights and
// post-call RNG state. Run under -race it is also the data-race check of the
// ownership split.
func TestPretrainActorChunkedMatchesPerSample(t *testing.T) {
	const samples, epochs, lr = 600, 4, 1e-2
	paper := DefaultConfig()
	paper.Seed = 31
	for _, cfg := range []Config{tinyCfg(31), paper} {
		mk := func() (*Agent, [][]float64, [][]float64) {
			ag := New(cfg)
			r := rand.New(rand.NewSource(77))
			states := make([][]float64, samples)
			actions := make([][]float64, samples)
			for i := range states {
				states[i] = make([]float64, cfg.StateDim)
				actions[i] = make([]float64, cfg.ActionDim)
				for j := range states[i] {
					states[i][j] = r.NormFloat64()
				}
				for j := range actions[i] {
					actions[i][j] = 2*r.Float64() - 1
				}
			}
			return ag, states, actions
		}

		// Per-sample reference: the exact loop PretrainActor ran before the
		// batch path, driven against agent internals.
		ref, rstates, ractions := mk()
		opt := nn.NewAdam(ref.actor, lr)
		idx := make([]int, len(rstates))
		for i := range idx {
			idx[i] = i
		}
		n := float64(len(rstates))
		grad := make([]float64, ref.actor.OutputDim())
		for e := 0; e < epochs; e++ {
			ref.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			ref.actor.ZeroGrad()
			for _, i := range idx {
				out := ref.actor.Forward(rstates[i])
				for j := range out {
					grad[j] = 2 * (out[j] - ractions[i][j]) / n
				}
				ref.actor.Backward(grad)
			}
			opt.Step()
		}
		if err := ref.actorT.CopyFrom(ref.actor); err != nil {
			t.Fatal(err)
		}
		sr, rngNext := mustSave(t, ref), ref.rng.Int63()

		for _, width := range []int{1, 2, 3, 8, 64} {
			ag, states, actions := mk()
			if err := ag.PretrainActor(states, actions, epochs, lr, width); err != nil {
				t.Fatal(err)
			}
			if sg := mustSave(t, ag); !bytes.Equal(sg.Actor, sr.Actor) {
				t.Fatalf("hidden %d width %d: PretrainActor diverges from per-sample reference", cfg.Hidden, width)
			}
			if got := ag.rng.Int63(); got != rngNext {
				t.Fatalf("hidden %d width %d: RNG state after PretrainActor diverges from per-sample reference", cfg.Hidden, width)
			}
			probe := make([]float64, cfg.StateDim)
			if a, b := ag.actorT.Forward(probe), ag.actor.Forward(probe); a[0] != b[0] {
				t.Fatalf("hidden %d width %d: target actor not synchronized", cfg.Hidden, width)
			}
		}
	}
}

// TestSampleIntoDstReuseDoesNotAlias covers the batched path's dst-reuse
// pattern: resampling into the same buffer must fully overwrite it, and the
// sampled transitions must alias buffer storage, not copies.
func TestSampleIntoDstReuseDoesNotAlias(t *testing.T) {
	b := NewReplayBuffer(16)
	for i := 0; i < 16; i++ {
		b.Add(Transition{R: float64(i)})
	}
	r1 := rand.New(rand.NewSource(3))
	r2 := rand.New(rand.NewSource(3))
	first := b.SampleInto(r1, 8, nil)
	firstCopy := append([]Transition(nil), first...)

	// Fresh rng with the same seed into the reused dst: identical draw.
	reused := b.SampleInto(r2, 8, first[:0])
	if &reused[0] != &firstCopy[0] && len(reused) != 8 {
		t.Fatal("dst not reused")
	}
	for i := range reused {
		if reused[i].R != firstCopy[i].R {
			t.Fatalf("reused dst sample %d: %v, want %v", i, reused[i].R, firstCopy[i].R)
		}
	}
	// A diverging rng must fully overwrite the reused buffer — no stale
	// entries can survive a shorter... equal-length resample.
	r3 := rand.New(rand.NewSource(4))
	other := b.SampleInto(r3, 8, reused[:0])
	manual := rand.New(rand.NewSource(4))
	for i := range other {
		if want := b.buf.Slot(manual.Intn(b.Len())).R; other[i].R != want {
			t.Fatalf("resample %d: %v, want %v", i, other[i].R, want)
		}
	}
}

// TestSampleIntoLargerThanBuffer pins with-replacement semantics when n
// exceeds the stored count: exactly n draws, every one a stored transition,
// consuming exactly n Intn calls.
func TestSampleIntoLargerThanBuffer(t *testing.T) {
	b := NewReplayBuffer(32)
	for i := 0; i < 5; i++ {
		b.Add(Transition{R: float64(i)})
	}
	r := rand.New(rand.NewSource(9))
	got := b.SampleInto(r, 13, nil)
	if len(got) != 13 {
		t.Fatalf("got %d samples, want 13", len(got))
	}
	manual := rand.New(rand.NewSource(9))
	for i, tr := range got {
		if want := float64(manual.Intn(5)); tr.R != want {
			t.Fatalf("draw %d: R=%v, want %v", i, tr.R, want)
		}
	}
	// The rng advanced exactly 13 draws: both streams now agree.
	if r.Int63() != manual.Int63() {
		t.Fatal("SampleInto consumed a different number of rng values than n")
	}
}

// TestSampleIntoWraparoundStableAcrossRounds pins sampling order stability
// once the ring wraps: SampleInto indexes raw ring storage, so for a given
// rng state the draw depends only on ring contents — identical histories
// give identical minibatches round after round, which is what keeps
// training goldens stable at any rollout worker count.
func TestSampleIntoWraparoundStableAcrossRounds(t *testing.T) {
	mk := func() *ReplayBuffer {
		b := NewReplayBuffer(8)
		for i := 0; i < 13; i++ { // wraps: raw storage holds 8..12,5,6,7
			b.Add(Transition{R: float64(i)})
		}
		return b
	}
	b1, b2 := mk(), mk()
	r1 := rand.New(rand.NewSource(11))
	r2 := rand.New(rand.NewSource(11))
	var round1, round2 []Transition
	for round := 0; round < 3; round++ {
		round1 = b1.SampleInto(r1, 6, round1[:0])
		round2 = b2.SampleInto(r2, 6, round2[:0])
		for i := range round1 {
			if round1[i].R != round2[i].R {
				t.Fatalf("round %d draw %d diverges: %v vs %v", round, i, round1[i].R, round2[i].R)
			}
		}
	}
	// Raw-index semantics after wraparound: raw slot i holds the newest
	// transition added at an index congruent to i, so slots 0..4 hold
	// 8..12 and slots 5..7 hold 5..7.
	manual := rand.New(rand.NewSource(11))
	b := mk()
	got := b.SampleInto(manual, 6, nil)
	check := rand.New(rand.NewSource(11))
	for i, tr := range got {
		want := float64(check.Intn(b.Len()))
		if want < 5 {
			want += 8
		}
		if tr.R != want {
			t.Fatalf("wraparound draw %d: R=%v, want %v", i, tr.R, want)
		}
	}
}
