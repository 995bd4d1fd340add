// Package rl implements the deep deterministic policy gradient (DDPG)
// algorithm from the paper's §3.4 (Alg. 3): a model-free actor-critic
// framework with replay buffer, target networks with soft updates, and
// Ornstein-Uhlenbeck exploration noise. Network shapes follow the paper:
// two fully connected hidden layers of 40 ReLU units; the actor ends in
// Tanh (actions in [-1,1]^ActionDim), the critic is linear.
//
// Transfer learning (§3.4) is supported via TransferFrom: a specialized
// per-microservice agent warm-starts from the general agent's weights.
package rl

import (
	"errors"
	"fmt"
	"math/rand"

	"firm/internal/nn"
	"firm/internal/ring"
)

// Transition is one (s_t, a_t, r_t, s_{t+1}) tuple (§3.4 RL primer).
type Transition struct {
	S    []float64
	A    []float64
	R    float64
	S2   []float64
	Done bool
}

// ReplayBuffer is the finite-sized transition cache R of Alg. 3. It holds
// only what has been added: storage grows toward capacity (never past it)
// and, once full, the oldest transition is overwritten in place. An agent
// that only runs inference never allocates a slot.
type ReplayBuffer struct {
	buf ring.Ring[Transition]
}

// NewReplayBuffer creates an empty buffer with the given capacity.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity <= 0 {
		panic("rl: replay capacity must be positive")
	}
	return &ReplayBuffer{buf: ring.New[Transition](capacity, 0)}
}

// Add inserts a transition, evicting the oldest when full.
func (b *ReplayBuffer) Add(t Transition) { *b.buf.Push() = t }

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int { return b.buf.Len() }

// At returns the i-th oldest stored transition, i in [0, Len()).
func (b *ReplayBuffer) At(i int) Transition { return *b.buf.At(i) }

// Sample draws exactly n transitions uniformly with replacement (n may
// exceed Len; duplicates are then guaranteed, which is the standard
// with-replacement semantics minibatch SGD assumes). n <= 0 or an empty
// buffer yields nil — never a panic — so callers batching freshly collected
// transitions can call it unconditionally.
func (b *ReplayBuffer) Sample(r *rand.Rand, n int) []Transition {
	if b.Len() == 0 || n <= 0 {
		return nil
	}
	return b.SampleInto(r, n, make([]Transition, 0, n))
}

// SampleInto is Sample appending into dst, so a per-step training loop can
// reuse one minibatch buffer across its entire run (TrainStep does). The
// random stream is consumed exactly as Sample consumes it. Draws index
// storage, not age: the buffer never pops, so its storage holds exactly the
// stored transitions.
func (b *ReplayBuffer) SampleInto(r *rand.Rand, n int, dst []Transition) []Transition {
	ln := b.Len()
	if ln == 0 || n <= 0 {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, *b.buf.Slot(r.Intn(ln)))
	}
	return dst
}

// The Ornstein-Uhlenbeck exploration process's parameters: mean reversion
// rate, volatility, and long-run mean (DDPG's standard choice).
const (
	noiseTheta = 0.15
	noiseSigma = 0.2
	noiseMu    = 0.0
)

// Table 4's learning rates and the target networks' soft-update rate.
const (
	actorLR  = 3e-4
	criticLR = 3e-3
	tau      = 0.01
)

// OUNoise is an Ornstein-Uhlenbeck process, the standard exploration noise
// for DDPG's continuous action space (Alg. 3 line 5's "random process N").
type OUNoise struct {
	x []float64
}

// NewOUNoise creates a process over dim action dimensions.
func NewOUNoise(dim int) *OUNoise {
	return &OUNoise{x: make([]float64, dim)}
}

// Reset re-centres the process (start of an episode).
func (o *OUNoise) Reset() {
	for i := range o.x {
		o.x[i] = 0
	}
}

// Sample advances the process and returns the current noise vector. The
// returned slice aliases internal state; copy if retained.
func (o *OUNoise) Sample(r *rand.Rand) []float64 {
	for i := range o.x {
		o.x[i] += noiseTheta*(noiseMu-o.x[i]) + noiseSigma*r.NormFloat64()
	}
	return o.x
}

// Config holds the DDPG hyperparameters; defaults mirror Table 4.
type Config struct {
	StateDim  int
	ActionDim int
	Hidden    int     // hidden units per layer (paper: 40)
	Gamma     float64 // discount factor (paper: 0.9)
	BatchSize int     // minibatch size (paper: 64)
	BufferCap int     // replay buffer size (paper: 1e5)
	// ActorDelay postpones actor (policy) updates for the first N train
	// steps so the critic stabilizes before it steers the policy — the
	// delayed-policy-update idea from TD3, which protects warm-started
	// actors from being destroyed by an untrained critic's gradients.
	ActorDelay uint64
	Seed       int64
}

// DefaultConfig returns Table 4's hyperparameters for the paper's
// state/action space (Table 3): 8 state inputs, 5 resource-limit actions.
func DefaultConfig() Config {
	return Config{
		StateDim: 8, ActionDim: 5, Hidden: 40,
		Gamma: 0.9, BatchSize: 64, BufferCap: 100000,
		ActorDelay: 400,
		Seed:       1,
	}
}

// Agent is a DDPG learner.
type Agent struct {
	cfg     Config
	actor   *nn.Net
	critic  *nn.Net
	actorT  *nn.Net
	criticT *nn.Net
	optA    *nn.Adam
	optC    *nn.Adam
	buf     *ReplayBuffer
	noise   *OUNoise
	rng     *rand.Rand

	// Updates counts TrainStep invocations that performed a gradient step.
	Updates uint64

	// TrainStep scratch, reused across steps: the RL training loops
	// dominate campaign wall-clock, so the per-step minibatch and target
	// buffers must not be reallocated tens of thousands of times per
	// episode.
	batch   []Transition
	targets []float64

	// Batched-path scratch: row-major [batch×dim] matrices fed to the nn
	// batch path. Grown once, then reused for the life of the agent.
	s2B   []float64 // next states
	tinB  []float64 // target-critic inputs [s2 ‖ π'(s2)]
	inB   []float64 // critic inputs [s ‖ a] (reused for [s ‖ π(s)])
	sB    []float64 // states
	gyB   []float64 // per-row output gradients (critic head is 1-wide)
	gactB []float64 // per-row actor output gradients
}

// growF returns s resized to n floats, reallocating only when capacity is
// exceeded. Contents are unspecified; callers overwrite every element.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// gatherRow copies src into dst[off:off+want], panicking on a dimension
// mismatch exactly where the per-sample path's nn.Forward would have.
func gatherRow(dst []float64, off int, src []float64, want int, what string) {
	if len(src) != want {
		panic(fmt.Sprintf("rl: %s dim %d, want %d", what, len(src), want))
	}
	copy(dst[off:off+want], src)
}

// New creates a DDPG agent (Alg. 3 lines 1-3: random init, target copies,
// empty replay buffer).
func New(cfg Config) *Agent {
	if cfg.StateDim <= 0 || cfg.ActionDim <= 0 {
		panic("rl: invalid state/action dims")
	}
	if cfg.Hidden <= 0 {
		cfg.Hidden = 40
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.BufferCap <= 0 {
		cfg.BufferCap = 100000
	}
	if cfg.Gamma <= 0 || cfg.Gamma > 1 {
		cfg.Gamma = 0.9
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	a := &Agent{
		cfg: cfg,
		actor: nn.New(r, []int{cfg.StateDim, cfg.Hidden, cfg.Hidden, cfg.ActionDim},
			[]nn.Activation{nn.ReLU, nn.ReLU, nn.Tanh}),
		critic: nn.New(r, []int{cfg.StateDim + cfg.ActionDim, cfg.Hidden, cfg.Hidden, 1},
			[]nn.Activation{nn.ReLU, nn.ReLU, nn.Linear}),
		buf:   NewReplayBuffer(cfg.BufferCap),
		noise: NewOUNoise(cfg.ActionDim),
		rng:   r,
	}
	a.actorT = a.actor.Clone()
	a.criticT = a.critic.Clone()
	a.optA = nn.NewAdam(a.actor, actorLR)
	a.optC = nn.NewAdam(a.critic, criticLR)
	a.optA.SetGradClip(5)
	a.optC.SetGradClip(5)
	return a
}

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// Buffer exposes the replay buffer (tests, diagnostics).
func (a *Agent) Buffer() *ReplayBuffer { return a.buf }

// Act returns the deterministic policy action π(s) in [-1,1]^ActionDim.
// The returned slice is freshly allocated.
func (a *Agent) Act(state []float64) []float64 {
	out := a.actor.Forward(state)
	return append([]float64(nil), out...)
}

// ActExplore returns π(s) + N_t, clamped to [-1,1] (Alg. 3 line 8).
func (a *Agent) ActExplore(state []float64) []float64 {
	act := a.Act(state)
	noise := a.noise.Sample(a.rng)
	for i := range act {
		act[i] += noise[i]
		if act[i] > 1 {
			act[i] = 1
		}
		if act[i] < -1 {
			act[i] = -1
		}
	}
	return act
}

// ResetNoise re-centres exploration noise (start of episode).
func (a *Agent) ResetNoise() { a.noise.Reset() }

// Reseed restarts the agent's private RNG, in place, at seed and re-centres
// exploration noise. Rollout replicas (internal/rollout) call it at every
// episode boundary so an episode's exploration stream is a pure function of
// its episode seed — independent of which worker runs the episode or what it
// ran before.
func (a *Agent) Reseed(seed int64) {
	a.rng.Seed(seed)
	a.noise.Reset()
}

// Observe stores a transition in the replay buffer (Alg. 3 line 10).
func (a *Agent) Observe(t Transition) { a.buf.Add(t) }

// TrainStep performs one DDPG update (Alg. 3 lines 11-15): sample a
// minibatch, regress the critic toward the bootstrapped target, ascend the
// actor along dQ/da, then soft-update both target networks. It returns the
// minibatch critic loss and false when the buffer has too few samples.
//
// The minibatch runs through nn's matrix-at-a-time batch path. Results are
// bit-identical to TrainStepSequential, the per-sample reference in
// rl_batch_test.go: both consume the same RNG stream (one SampleInto draw)
// and accumulate every float sum in the same sample-major order.
func (a *Agent) TrainStep() (criticLoss float64, ok bool) {
	if a.buf.Len() < a.cfg.BatchSize {
		return 0, false
	}
	a.batch = a.buf.SampleInto(a.rng, a.cfg.BatchSize, a.batch[:0])
	batch := a.batch
	nb := len(batch)
	n := float64(nb)
	sd, ad := a.cfg.StateDim, a.cfg.ActionDim
	cd := sd + ad

	// Bootstrapped targets: y_i = r_i + gamma*Q'(s2_i, π'(s2_i)). The
	// forwards run for every row — terminal rows' values are computed but
	// unused, which cannot perturb results (forward passes read no
	// gradient state).
	a.targets = growF(a.targets, nb)
	a.s2B = growF(a.s2B, nb*sd)
	a.tinB = growF(a.tinB, nb*cd)
	for i, tr := range batch {
		gatherRow(a.s2B, i*sd, tr.S2, sd, "next state")
	}
	a2 := a.actorT.ForwardBatch(a.s2B, nb)
	for i, tr := range batch {
		gatherRow(a.tinB, i*cd, tr.S2, sd, "next state")
		copy(a.tinB[i*cd+sd:i*cd+cd], a2[i*ad:i*ad+ad])
	}
	q2 := a.criticT.ForwardBatch(a.tinB, nb)
	for i, tr := range batch {
		y := tr.R
		if !tr.Done {
			y += a.cfg.Gamma * q2[i]
		}
		a.targets[i] = y
	}

	// Critic update: minimize (y_i - Q(s_i, a_i))^2.
	a.inB = growF(a.inB, nb*cd)
	a.gyB = growF(a.gyB, nb)
	for i, tr := range batch {
		gatherRow(a.inB, i*cd, tr.S, sd, "state")
		gatherRow(a.inB, i*cd+sd, tr.A, ad, "action")
	}
	a.critic.ZeroGrad()
	q := a.critic.ForwardBatch(a.inB, nb)
	for i := 0; i < nb; i++ {
		d := q[i] - a.targets[i]
		criticLoss += d * d / n
		a.gyB[i] = 2 * d / n
	}
	a.critic.BackwardBatchParams(a.gyB, nb)
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
	a.sB = growF(a.sB, nb*sd)
	a.gactB = growF(a.gactB, nb*ad)
	for i, tr := range batch {
		gatherRow(a.sB, i*sd, tr.S, sd, "state")
	}
	acts := a.actor.ForwardBatch(a.sB, nb)
	for i := 0; i < nb; i++ {
		copy(a.inB[i*cd:i*cd+sd], a.sB[i*sd:i*sd+sd])
		copy(a.inB[i*cd+sd:i*cd+cd], acts[i*ad:i*ad+ad])
	}
	a.critic.ForwardBatch(a.inB, nb)
	for i := 0; i < nb; i++ {
		a.gyB[i] = 1
	}
	// InputGrad leaves the critic's parameter gradients untouched, so the
	// frozen-critic extraction needs no ZeroGrad bracketing at all.
	gin := a.critic.BackwardBatchInputGrad(a.gyB, nb) // dQ/d[s‖a] per row
	for b := 0; b < nb; b++ {
		dqda := gin[b*cd+sd : b*cd+cd]
		for j, g := range dqda {
			a.gactB[b*ad+j] = -g / n // minimize -Q
		}
	}
	a.actor.ZeroGrad()
	a.actor.BackwardBatchParams(a.gactB, nb)
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

// PretrainActor behaviour-clones a demonstration policy: supervised MSE
// regression of π(s) onto demonstrated actions. The paper explores from
// scratch over thousands of episodes; a reproduction running orders of
// magnitude fewer episodes seeds the actor this way and lets DDPG refine
// it online. The target actor is synchronized afterwards.
//
// Each epoch is one nn.Epoch pass over the shuffled set, split across width
// workers by ownership (see nn.Epoch); the trained weights and the agent's
// RNG state are byte-identical at any width, and to the per-sample loop.
func (a *Agent) PretrainActor(states, actions [][]float64, epochs int, lr float64, width int) error {
	if len(states) != len(actions) || len(states) == 0 {
		return errors.New("rl: bad demonstration set")
	}
	opt := nn.NewAdam(a.actor, lr)
	idx := make([]int, len(states))
	for i := range idx {
		idx[i] = i
	}
	n := float64(len(states))
	in, out := a.actor.InputDim(), a.actor.OutputDim()
	ep := a.actor.NewEpoch(len(states), width)
	xb := ep.Input()
	mse := func(lo, hi int, y, gy []float64) {
		for k := lo; k < hi; k++ {
			act := actions[idx[k]][:out]
			row := (k - lo) * out
			for j, t := range act {
				gy[row+j] = 2 * (y[row+j] - t) / n
			}
		}
	}
	for e := 0; e < epochs; e++ {
		a.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for k, i := range idx {
			gatherRow(xb, k*in, states[i], in, "demo state")
		}
		a.actor.ZeroGrad()
		ep.Accumulate(mse)
		opt.Step()
	}
	return a.actorT.CopyFrom(a.actor)
}

// TransferFrom warm-starts this agent from src's learned networks: the
// transfer-learning path of §3.4, where a specialized per-microservice
// agent inherits the general agent's parameters and fine-tunes.
func (a *Agent) TransferFrom(src *Agent) error {
	if a.cfg.StateDim != src.cfg.StateDim || a.cfg.ActionDim != src.cfg.ActionDim {
		return errors.New("rl: transfer requires matching state/action dims")
	}
	if err := a.actor.CopyFrom(src.actor); err != nil {
		return err
	}
	if err := a.critic.CopyFrom(src.critic); err != nil {
		return err
	}
	if err := a.actorT.CopyFrom(src.actorT); err != nil {
		return err
	}
	return a.criticT.CopyFrom(src.criticT)
}

// Snapshot captures the current actor/critic weights (checkpointing for
// Fig. 11(b)'s per-checkpoint mitigation evaluation).
type Snapshot struct {
	Actor  []byte
	Critic []byte
}

// Save serializes the learned networks.
func (a *Agent) Save() (Snapshot, error) {
	act, err := a.actor.Marshal()
	if err != nil {
		return Snapshot{}, err
	}
	cr, err := a.critic.Marshal()
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Actor: act, Critic: cr}, nil
}

// Load restores networks from a snapshot (targets are hard-copied).
func (a *Agent) Load(s Snapshot) error {
	actor, err := nn.Unmarshal(s.Actor)
	if err != nil {
		return err
	}
	critic, err := nn.Unmarshal(s.Critic)
	if err != nil {
		return err
	}
	if err := a.actor.CopyFrom(actor); err != nil {
		return err
	}
	if err := a.critic.CopyFrom(critic); err != nil {
		return err
	}
	if err := a.actorT.CopyFrom(actor); err != nil {
		return err
	}
	return a.criticT.CopyFrom(critic)
}

// CopyActor copies src's actor into a's, in place: the round-boundary sync
// of rollout replicas, which only act, so their critic and target nets are
// never read. Save and Load are the checkpoint and wire form.
//
//firmvet:noalloc
func (a *Agent) CopyActor(src *Agent) error {
	return a.actor.CopyFrom(src.actor)
}
