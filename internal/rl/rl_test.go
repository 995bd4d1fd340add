package rl

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"firm/internal/nn"
	"firm/internal/ring"
)

func TestReplayBuffer(t *testing.T) {
	b := NewReplayBuffer(3)
	if b.Len() != 0 {
		t.Fatal("empty buffer")
	}
	for i := 0; i < 5; i++ {
		b.Add(Transition{R: float64(i)})
	}
	if b.Len() != 3 {
		t.Fatalf("len = %d, want 3 (capacity)", b.Len())
	}
	// Oldest evicted: rewards 2,3,4 remain.
	r := rand.New(rand.NewSource(1))
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		for _, tr := range b.Sample(r, 4) {
			seen[tr.R] = true
		}
	}
	for _, old := range []float64{0, 1} {
		if seen[old] {
			t.Fatalf("evicted transition %v sampled", old)
		}
	}
	for _, cur := range []float64{2, 3, 4} {
		if !seen[cur] {
			t.Fatalf("live transition %v never sampled", cur)
		}
	}
	if NewReplayBuffer(1).Sample(r, 3) != nil {
		t.Fatal("empty sample must be nil")
	}
}

func TestReplayBufferPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewReplayBuffer(0)
}

func TestOUNoiseMeanReverting(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	o := NewOUNoise(1)
	var sum, n float64
	for i := 0; i < 50000; i++ {
		sum += o.Sample(r)[0]
		n++
	}
	if mean := sum / n; math.Abs(mean) > 0.15 {
		t.Fatalf("OU mean %v should revert toward 0", mean)
	}
	o.Reset()
	// After reset the state starts at 0 again.
	first := o.Sample(r)[0]
	if math.Abs(first) > 1.0 {
		t.Fatalf("post-reset sample %v too large", first)
	}
}

func TestActShapesAndRange(t *testing.T) {
	a := New(DefaultConfig())
	s := make([]float64, 8)
	act := a.Act(s)
	if len(act) != 5 {
		t.Fatalf("action dim %d", len(act))
	}
	for _, v := range act {
		if v < -1 || v > 1 {
			t.Fatalf("action %v outside tanh range", v)
		}
	}
	for i := 0; i < 100; i++ {
		for _, v := range a.ActExplore(s) {
			if v < -1 || v > 1 {
				t.Fatalf("explored action %v outside clamp", v)
			}
		}
	}
}

func TestTrainStepRequiresBatch(t *testing.T) {
	a := New(DefaultConfig())
	if _, ok := a.TrainStep(); ok {
		t.Fatal("TrainStep must refuse with an empty buffer")
	}
}

// A one-step continuous control task: state s ∈ [-1,1]^2, optimal action
// a* = (s0, -s1, 0, ...). Reward = 1 - mean squared action error. DDPG must
// drive average reward close to optimum.
func TestDDPGLearnsOneStepControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StateDim = 2
	cfg.ActionDim = 2
	cfg.Seed = 3
	a := New(cfg)
	r := rand.New(rand.NewSource(4))

	reward := func(s, act []float64) float64 {
		d0 := act[0] - s[0]
		d1 := act[1] + s[1]
		return 1 - (d0*d0+d1*d1)/2
	}
	evalReward := func() float64 {
		var sum float64
		const n = 200
		rr := rand.New(rand.NewSource(99))
		for i := 0; i < n; i++ {
			s := []float64{rr.Float64()*2 - 1, rr.Float64()*2 - 1}
			sum += reward(s, a.Act(s))
		}
		return sum / n
	}

	before := evalReward()
	for step := 0; step < 4000; step++ {
		s := []float64{r.Float64()*2 - 1, r.Float64()*2 - 1}
		act := a.ActExplore(s)
		a.Observe(Transition{S: s, A: act, R: reward(s, act), S2: s, Done: true})
		a.TrainStep()
	}
	after := evalReward()
	if after < 0.9 {
		t.Fatalf("DDPG failed to learn: reward %v -> %v", before, after)
	}
	if a.Updates == 0 {
		t.Fatal("no training updates recorded")
	}
}

// Multi-step task: agent must learn that actions have delayed consequences.
// State is a scalar position; action nudges it; reward peaks at the origin.
func TestDDPGLearnsMultiStep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StateDim = 1
	cfg.ActionDim = 1
	cfg.Seed = 5
	cfg.Gamma = 0.9
	a := New(cfg)
	r := rand.New(rand.NewSource(6))

	episode := func(explore bool) float64 {
		pos := r.Float64()*2 - 1
		var total float64
		a.ResetNoise()
		for step := 0; step < 10; step++ {
			s := []float64{pos}
			var act []float64
			if explore {
				act = a.ActExplore(s)
			} else {
				act = a.Act(s)
			}
			pos += 0.5 * act[0]
			if pos > 2 {
				pos = 2
			}
			if pos < -2 {
				pos = -2
			}
			rew := 1 - pos*pos
			total += rew
			if explore {
				a.Observe(Transition{S: s, A: act, R: rew, S2: []float64{pos}, Done: step == 9})
				a.TrainStep()
			}
		}
		return total
	}

	for ep := 0; ep < 300; ep++ {
		episode(true)
	}
	var avg float64
	for ep := 0; ep < 30; ep++ {
		avg += episode(false)
	}
	avg /= 30
	if avg < 7.5 { // max 10; random policy scores ~5
		t.Fatalf("multi-step return %v too low", avg)
	}
}

func TestTransferFrom(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	src := New(cfg)
	cfg.Seed = 8
	dst := New(cfg)
	s := make([]float64, 8)
	for i := range s {
		s[i] = 0.3
	}
	if same(src.Act(s), dst.Act(s)) {
		t.Fatal("different seeds should differ before transfer")
	}
	if err := dst.TransferFrom(src); err != nil {
		t.Fatal(err)
	}
	if !same(src.Act(s), dst.Act(s)) {
		t.Fatal("transfer must copy the policy")
	}
	bad := New(Config{StateDim: 3, ActionDim: 5, Seed: 1})
	if err := bad.TransferFrom(src); err == nil {
		t.Fatal("dim mismatch must error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	a := New(cfg)
	snap, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 10
	b := New(cfg)
	s := make([]float64, 8)
	for i := range s {
		s[i] = -0.2
	}
	if same(a.Act(s), b.Act(s)) {
		t.Fatal("sanity: different agents")
	}
	if err := b.Load(snap); err != nil {
		t.Fatal(err)
	}
	if !same(a.Act(s), b.Act(s)) {
		t.Fatal("Load must restore the policy")
	}
	if err := b.Load(Snapshot{Actor: []byte("x"), Critic: snap.Critic}); err == nil {
		t.Fatal("corrupt snapshot must error")
	}
}

// q evaluates a's critic for a state-action pair.
func q(a *Agent, state, action []float64) float64 {
	in := make([]float64, 0, len(state)+len(action))
	in = append(in, state...)
	in = append(in, action...)
	return a.critic.Forward(in)[0]
}

func TestQEvaluation(t *testing.T) {
	a := New(DefaultConfig())
	s := make([]float64, 8)
	act := make([]float64, 5)
	q1 := q(a, s, act)
	q2 := q(a, s, act)
	if q1 != q2 {
		t.Fatal("Q must be deterministic")
	}
	if math.IsNaN(q1) || math.IsInf(q1, 0) {
		t.Fatalf("Q = %v", q1)
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() []float64 {
		cfg := DefaultConfig()
		cfg.StateDim = 2
		cfg.ActionDim = 1
		cfg.Seed = 11
		a := New(cfg)
		r := rand.New(rand.NewSource(12))
		for i := 0; i < 500; i++ {
			s := []float64{r.Float64(), r.Float64()}
			act := a.ActExplore(s)
			a.Observe(Transition{S: s, A: act, R: -act[0] * act[0], S2: s, Done: true})
			a.TrainStep()
		}
		return a.Act([]float64{0.5, 0.5})
	}
	if !same(run(), run()) {
		t.Fatal("training must be deterministic under fixed seeds")
	}
}

func TestConfigDefaultsMatchTable4(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Gamma != 0.9 {
		t.Fatalf("discount %v, Table 4 says 0.9", cfg.Gamma)
	}
	if actorLR != 3e-4 || criticLR != 3e-3 {
		t.Fatalf("lr %v/%v, Table 4 says 3e-4/3e-3", actorLR, criticLR)
	}
	if cfg.BufferCap != 100000 {
		t.Fatalf("buffer %d, Table 4 says 1e5", cfg.BufferCap)
	}
	if cfg.BatchSize != 64 {
		t.Fatalf("batch %d, Table 4 says 64", cfg.BatchSize)
	}
	if cfg.StateDim != 8 || cfg.ActionDim != 5 || cfg.Hidden != 40 {
		t.Fatal("network shape must match §3.4 (8 inputs, 5 outputs, 40 hidden)")
	}
}

func TestReplayBufferWraparoundOrder(t *testing.T) {
	b := NewReplayBuffer(4)
	for i := 0; i < 3; i++ {
		b.Add(Transition{R: float64(i)})
	}
	// Not yet wrapped: At indexes from the first insertion.
	for i := 0; i < 3; i++ {
		if b.At(i).R != float64(i) {
			t.Fatalf("At(%d) = %v before wrap", i, b.At(i).R)
		}
	}
	for i := 3; i < 10; i++ {
		b.Add(Transition{R: float64(i)})
	}
	if b.Len() != 4 {
		t.Fatalf("Len = %d at capacity", b.Len())
	}
	// 10 insertions into cap 4: oldest six evicted in insertion order,
	// survivors are 6,7,8,9 oldest-first.
	for i := 0; i < 4; i++ {
		if got, want := b.At(i).R, float64(6+i); got != want {
			t.Fatalf("At(%d) = %v, want %v (eviction must be FIFO)", i, got, want)
		}
	}
}

func TestReplayBufferAtPanicsOutOfRange(t *testing.T) {
	b := NewReplayBuffer(2)
	b.Add(Transition{})
	for _, i := range []int{-1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) must panic with Len 1", i)
				}
			}()
			b.At(i)
		}()
	}
}

func TestReplayBufferSampleBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	b := NewReplayBuffer(8)
	// Empty buffer: nil for any n.
	if b.Sample(r, 5) != nil {
		t.Fatal("empty buffer must sample nil")
	}
	b.Add(Transition{R: 1})
	b.Add(Transition{R: 2})
	// n <= 0: nil, never a panic (a negative make() used to panic here).
	if b.Sample(r, 0) != nil || b.Sample(r, -3) != nil {
		t.Fatal("n <= 0 must sample nil")
	}
	// n > Len: exactly n draws with replacement, all from live contents.
	out := b.Sample(r, 50)
	if len(out) != 50 {
		t.Fatalf("want 50 with-replacement draws, got %d", len(out))
	}
	for _, tr := range out {
		if tr.R != 1 && tr.R != 2 {
			t.Fatalf("sampled transition %v not in buffer", tr.R)
		}
	}
}

func TestReplayBufferSampleDeterministic(t *testing.T) {
	b := NewReplayBuffer(16)
	for i := 0; i < 16; i++ {
		b.Add(Transition{R: float64(i)})
	}
	draw := func() []float64 {
		r := rand.New(rand.NewSource(21))
		var out []float64
		for _, tr := range b.Sample(r, 40) {
			out = append(out, tr.R)
		}
		return out
	}
	if !same(draw(), draw()) {
		t.Fatal("Sample must be a pure function of the RNG state")
	}
}

// refReplay is the replay buffer as it was before it grew on demand: every
// slot allocated up front, a write cursor and a full flag. It is the oracle
// the growing buffer is pinned against.
type refReplay struct {
	buf  []Transition
	pos  int
	full bool
}

func (b *refReplay) add(t Transition) {
	b.buf[b.pos] = t
	b.pos = (b.pos + 1) % len(b.buf)
	if b.pos == 0 {
		b.full = true
	}
}

func (b *refReplay) len() int {
	if b.full {
		return len(b.buf)
	}
	return b.pos
}

func (b *refReplay) at(i int) Transition {
	if !b.full {
		return b.buf[i]
	}
	return b.buf[(b.pos+i)%len(b.buf)]
}

func (b *refReplay) sampleInto(r *rand.Rand, n int, dst []Transition) []Transition {
	ln := b.len()
	if ln == 0 || n <= 0 {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, b.buf[r.Intn(ln)])
	}
	return dst
}

// TestReplayBufferGrowthMatchesPreallocated replays one random Add / At /
// Len / SampleInto sequence, through several wraps, on the growing buffer
// and on a preallocated reference: every answer and every RNG draw must
// agree.
func TestReplayBufferGrowthMatchesPreallocated(t *testing.T) {
	eq := func(a, b Transition) bool {
		return math.Float64bits(a.R) == math.Float64bits(b.R) && &a.S[0] == &b.S[0] && a.Done == b.Done
	}
	for _, capacity := range []int{1, 7, 128, 1000} {
		ops := rand.New(rand.NewSource(int64(capacity)))
		rg, rr := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
		got, want := NewReplayBuffer(capacity), &refReplay{buf: make([]Transition, capacity)}
		var dg, dr []Transition
		added := 0
		for added < 4*capacity+3 {
			switch ops.Intn(4) {
			case 0, 1:
				tr := Transition{S: []float64{float64(added)}, R: ops.NormFloat64(), Done: ops.Intn(2) == 0}
				got.Add(tr)
				want.add(tr)
				added++
			case 2:
				if got.Len() != want.len() {
					t.Fatalf("cap %d after %d adds: Len %d, want %d", capacity, added, got.Len(), want.len())
				}
				for i := 0; i < want.len(); i++ {
					if !eq(got.At(i), want.at(i)) {
						t.Fatalf("cap %d after %d adds: At(%d) = %+v, want %+v", capacity, added, i, got.At(i), want.at(i))
					}
				}
			case 3:
				n := ops.Intn(70)
				dg, dr = got.SampleInto(rg, n, dg[:0]), want.sampleInto(rr, n, dr[:0])
				if len(dg) != len(dr) {
					t.Fatalf("cap %d: SampleInto drew %d, want %d", capacity, len(dg), len(dr))
				}
				for i := range dr {
					if !eq(dg[i], dr[i]) {
						t.Fatalf("cap %d after %d adds: draw %d = %+v, want %+v", capacity, added, i, dg[i], dr[i])
					}
				}
			}
		}
		if got.Len() != capacity {
			t.Fatalf("cap %d: full buffer has Len %d", capacity, got.Len())
		}
		if rg.Int63() != rr.Int63() {
			t.Fatalf("cap %d: RNG streams diverged", capacity)
		}
	}
}

// TestInferenceAgentHoldsNoReplay: an agent that never observes a
// transition keeps no replay storage, whatever its configured capacity —
// its buffer is the ring built with no eager slots.
func TestInferenceAgentHoldsNoReplay(t *testing.T) {
	cfg := DefaultConfig()
	a := New(cfg)
	if empty := ring.New[Transition](cfg.BufferCap, 0); !reflect.DeepEqual(a.Buffer().buf, empty) {
		t.Fatalf("fresh agent holds %d transitions and some replay storage", a.Buffer().Len())
	}
}

func TestOUNoiseResetRestartsProcess(t *testing.T) {
	o := NewOUNoise(3)
	first := append([]float64(nil), o.Sample(rand.New(rand.NewSource(31)))...)
	for i := 0; i < 100; i++ {
		o.Sample(rand.New(rand.NewSource(int64(i))))
	}
	o.Reset()
	// After Reset the process re-centres at zero, so with the same RNG the
	// first sample repeats exactly.
	if !same(first, o.Sample(rand.New(rand.NewSource(31)))) {
		t.Fatal("Reset must re-centre the process state at 0")
	}
}

func TestReseedMakesExplorationReproducible(t *testing.T) {
	a := New(DefaultConfig())
	s := make([]float64, 8)
	for i := range s {
		s[i] = 0.1 * float64(i)
	}
	seq := func() [][]float64 {
		a.Reseed(77)
		var out [][]float64
		for i := 0; i < 5; i++ {
			out = append(out, a.ActExplore(s))
		}
		return out
	}
	s1 := seq()
	// Perturb the RNG and noise state, then reseed again.
	for i := 0; i < 50; i++ {
		a.ActExplore(s)
	}
	s2 := seq()
	for i := range s1 {
		if !same(s1[i], s2[i]) {
			t.Fatalf("step %d: exploration not a pure function of the reseed", i)
		}
	}
}

// trainEquivalent drives both agents through an identical observe/train
// protocol and reports whether their policies stay bit-equal — the property
// rollout replicas rely on: snapshot → load (or transfer) must reproduce
// actor, critic, AND target networks, or subsequent training diverges.
func trainEquivalent(t *testing.T, a, b *Agent) {
	t.Helper()
	a.Reseed(55)
	b.Reseed(55)
	r := rand.New(rand.NewSource(56))
	for i := 0; i < 200; i++ {
		s := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64(),
			r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		tr := Transition{S: s, A: a.Act(s), R: r.Float64(), S2: s, Done: i%10 == 9}
		a.Observe(tr)
		b.Observe(tr)
		la, oka := a.TrainStep()
		lb, okb := b.TrainStep()
		if oka != okb || la != lb {
			t.Fatalf("step %d: training diverged (loss %v vs %v)", i, la, lb)
		}
	}
	probe := []float64{0.2, -0.4, 0.6, 0.1, -0.9, 0.3, 0.5, -0.1}
	if !same(a.Act(probe), b.Act(probe)) {
		t.Fatal("policies diverged after identical training")
	}
	if q(a, probe, a.Act(probe)) != q(b, probe, b.Act(probe)) {
		t.Fatal("critics diverged after identical training")
	}
}

func TestSnapshotMutateLoadRestoresBitEqual(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 41
	cfg.ActorDelay = 20 // let the mutation phase move the actor, not just the critic
	a := New(cfg)
	// Give the agent non-initial weights before snapshotting.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 150; i++ {
		s := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64(),
			r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		a.Observe(Transition{S: s, A: a.ActExplore(s), R: r.Float64(), S2: s, Done: true})
		a.TrainStep()
	}
	snap, err := a.Save()
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.7, -0.2, 0.4, 0.9, -0.5, 0.1, 0.3, -0.8}
	wantAct := a.Act(probe)
	wantQ := q(a, probe, wantAct)

	// Mutate: keep training past the snapshot.
	for i := 0; i < 60; i++ {
		s := []float64{r.Float64(), 0, 0, 0, 0, 0, 0, 0}
		a.Observe(Transition{S: s, A: a.ActExplore(s), R: 1, S2: s, Done: true})
		a.TrainStep()
	}
	if same(wantAct, a.Act(probe)) {
		t.Fatal("sanity: mutation must move the policy")
	}
	if err := a.Load(snap); err != nil {
		t.Fatal(err)
	}
	if !same(wantAct, a.Act(probe)) {
		t.Fatal("Load must restore the actor bit-for-bit")
	}
	if got := q(a, probe, wantAct); got != wantQ {
		t.Fatalf("Load must restore the critic bit-for-bit (%v != %v)", got, wantQ)
	}
	// Targets are hard-copied on Load: two fresh agents loaded from the same
	// snapshot (same empty buffer, same update counter) must evolve
	// identically under an identical protocol.
	cfg.Seed = 43
	b := New(cfg)
	if err := b.Load(snap); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 49
	c := New(cfg)
	if err := c.Load(snap); err != nil {
		t.Fatal(err)
	}
	trainEquivalent(t, b, c)
}

func TestTransferFromRoundTripTrainsEquivalently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 44
	src := New(cfg)
	r := rand.New(rand.NewSource(45))
	for i := 0; i < 120; i++ {
		s := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64(),
			r.Float64(), r.Float64(), r.Float64(), r.Float64()}
		src.Observe(Transition{S: s, A: src.ActExplore(s), R: r.Float64(), S2: s, Done: true})
		src.TrainStep()
	}
	cfg.Seed = 46
	dst := New(cfg)
	if err := dst.TransferFrom(src); err != nil {
		t.Fatal(err)
	}
	// TransferFrom copies all four networks (actor, critic, both targets):
	// two transferred agents must train in lockstep from here.
	cfg.Seed = 47
	ref := New(cfg)
	if err := ref.TransferFrom(src); err != nil {
		t.Fatal(err)
	}
	trainEquivalent(t, dst, ref)

	// A minimal-buffer acting replica still mirrors the policy exactly:
	// replay capacity must not leak into the weights.
	cfg.Seed = 48
	cfg.BufferCap = 1
	replica := New(cfg)
	if err := replica.TransferFrom(src); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3}
	if !same(replica.Act(probe), src.Act(probe)) {
		t.Fatal("replica policy must match source bit-for-bit")
	}
}

func same(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCopyActor: CopyActor puts src's actor, bit for bit, into a's actor
// and nowhere else — a's critic and target nets keep their weights — the
// copy stays put while src trains on, a warm copy allocates nothing, and
// a copy between shapes errors.
func TestCopyActor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 51
	src := New(cfg)
	r := rand.New(rand.NewSource(52))
	train := func(steps int) {
		for i := 0; i < steps; i++ {
			s := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64(),
				r.Float64(), r.Float64(), r.Float64(), r.Float64()}
			src.Observe(Transition{S: s, A: src.ActExplore(s), R: r.Float64(), S2: s, Done: true})
			src.TrainStep()
		}
	}
	marshal := func(n *nn.Net) []byte {
		b, err := n.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cfg.Seed = 53
	dst := New(cfg)
	others := func() []byte {
		return append(append(marshal(dst.critic), marshal(dst.actorT)...), marshal(dst.criticT)...)
	}
	rest := others()
	for round := 0; round < 2; round++ {
		train(80)
		want := marshal(src.actor)
		if err := dst.CopyActor(src); err != nil {
			t.Fatal(err)
		}
		train(20) // src moves on; the copy must not
		if !bytes.Equal(marshal(dst.actor), want) {
			t.Fatalf("round %d: the copied actor differs from src's at the copy", round)
		}
		if !bytes.Equal(others(), rest) {
			t.Fatalf("round %d: CopyActor moved a critic or target net", round)
		}
	}
	if n := testing.AllocsPerRun(20, func() { _ = dst.CopyActor(src) }); n != 0 {
		t.Fatalf("CopyActor allocates %v per call, want 0", n)
	}
	cfg.Hidden = 7
	if err := New(cfg).CopyActor(src); err == nil {
		t.Fatal("CopyActor between actor shapes must error")
	}
}
