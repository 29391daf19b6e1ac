package bandit

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/nn"
)

// DDPGOptions configure the DDPG baseline.
type DDPGOptions struct {
	// Grid discretizes the actor's continuous output onto the shared
	// control space.
	Grid core.GridSpec
	// Weights and Constraints define the DDPG cost of §6.5: the eq. 1 cost
	// when all constraints hold, MaxCost otherwise.
	Weights     core.CostWeights
	Constraints core.Constraints
	// MaxCost is the penalty cost for constraint violations; zero defaults
	// to twice the cost normalization center.
	MaxCost float64
	// Hidden holds the hidden-layer widths of actor and critic (default
	// [64, 64], the vrAIn-style architecture with a sigmoid actor head).
	Hidden []int
	// ActorLR, CriticLR are Adam learning rates (defaults 1e-3, 1e-3).
	ActorLR, CriticLR float64
	// BufferSize and BatchSize control experience replay (defaults 4096, 64).
	BufferSize, BatchSize int
	// NoiseStd is the initial exploration noise on actor outputs and
	// NoiseDecay its per-period multiplicative decay (defaults 0.35,
	// 0.999); NoiseMin floors it (default 0.02).
	NoiseStd, NoiseDecay, NoiseMin float64
	// UpdatesPerStep is the number of minibatch updates per period
	// (default 4).
	UpdatesPerStep int
	// Seed drives initialization, exploration, and replay sampling.
	Seed int64
}

func (o *DDPGOptions) applyDefaults() error {
	if err := o.Grid.Validate(); err != nil {
		return err
	}
	if err := o.Constraints.Validate(); err != nil {
		return err
	}
	if err := o.Weights.Validate(); err != nil {
		return err
	}
	if o.MaxCost == 0 {
		o.MaxCost = 2 * core.DefaultNormalization(o.Weights).Cost.Center
	}
	if o.MaxCost <= 0 {
		return fmt.Errorf("bandit: MaxCost %v must be positive", o.MaxCost)
	}
	if o.Hidden == nil {
		o.Hidden = []int{64, 64}
	}
	if o.ActorLR == 0 {
		o.ActorLR = 1e-3
	}
	if o.CriticLR == 0 {
		o.CriticLR = 1e-3
	}
	if o.BufferSize == 0 {
		o.BufferSize = 4096
	}
	if o.BatchSize == 0 {
		o.BatchSize = 64
	}
	if o.BufferSize < o.BatchSize {
		return fmt.Errorf("bandit: buffer %d smaller than batch %d", o.BufferSize, o.BatchSize)
	}
	if o.NoiseStd == 0 {
		o.NoiseStd = 0.35
	}
	if o.NoiseDecay == 0 {
		o.NoiseDecay = 0.999
	}
	if o.NoiseMin == 0 {
		o.NoiseMin = 0.02
	}
	if o.NoiseStd < 0 || o.NoiseDecay <= 0 || o.NoiseDecay > 1 || o.NoiseMin < 0 {
		return fmt.Errorf("bandit: invalid exploration noise parameters")
	}
	if o.UpdatesPerStep == 0 {
		o.UpdatesPerStep = 4
	}
	if o.UpdatesPerStep < 0 {
		return fmt.Errorf("bandit: negative UpdatesPerStep")
	}
	return nil
}

// sample is one replay-buffer entry.
type sample struct {
	ctx    []float64
	action []float64
	cost   float64 // normalized DDPG cost
}

// DDPG is the deep-deterministic-policy-gradient baseline adapted to the
// contextual bandit problem (§6.5): the critic regresses the immediate
// "DDPG cost" — eq. 1 when the constraints hold, MaxCost otherwise —
// instead of a bootstrapped Q value, and the actor follows the critic's
// action gradient through a sigmoid head.
type DDPG struct {
	opts   DDPGOptions
	actor  *nn.Net
	critic *nn.Net

	actorOpt, criticOpt *nn.Adam
	buf                 []sample
	bufNext             int
	bufFull             bool
	rng                 *rand.Rand
	noise               float64
	costScale           float64
}

// NewDDPG builds the baseline.
func NewDDPG(opts DDPGOptions) (*DDPG, error) {
	if err := opts.applyDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	actorSizes := append([]int{core.ContextDims}, opts.Hidden...)
	actorSizes = append(actorSizes, core.ControlDims)
	actor, err := nn.NewNet(actorSizes, nn.ReLU, nn.Sigmoid, rng)
	if err != nil {
		return nil, err
	}
	criticSizes := append([]int{core.ContextDims + core.ControlDims}, opts.Hidden...)
	criticSizes = append(criticSizes, 1)
	critic, err := nn.NewNet(criticSizes, nn.ReLU, nn.Linear, rng)
	if err != nil {
		return nil, err
	}
	actorOpt, err := nn.NewAdam(opts.ActorLR)
	if err != nil {
		return nil, err
	}
	criticOpt, err := nn.NewAdam(opts.CriticLR)
	if err != nil {
		return nil, err
	}
	return &DDPG{
		opts:      opts,
		actor:     actor,
		critic:    critic,
		actorOpt:  actorOpt,
		criticOpt: criticOpt,
		buf:       make([]sample, opts.BufferSize),
		rng:       rng,
		noise:     opts.NoiseStd,
		costScale: opts.MaxCost,
	}, nil
}

// SetConstraints updates the constraint set used to compute the DDPG cost.
// Unlike EdgeBOL, the parametric critic must relearn the shifted cost
// surface from new experience — the weakness Fig. 14 exposes.
func (d *DDPG) SetConstraints(c core.Constraints) error {
	if err := c.Validate(); err != nil {
		return err
	}
	d.opts.Constraints = c
	return nil
}

// actionToControl maps the sigmoid outputs onto the control grid.
func (d *DDPG) actionToControl(a []float64) core.Control {
	return d.opts.Grid.Nearest(core.Control{
		Resolution: a[0],
		Airtime:    a[1],
		GPUSpeed:   a[2],
		MCS:        a[3],
	})
}

// Select returns the control for ctx: actor output plus decaying
// Gaussian exploration noise, snapped to the grid.
func (d *DDPG) Select(ctx core.Context) core.Control {
	out := d.actor.Forward(core.ContextFeatures(ctx))
	a := make([]float64, len(out))
	for i, v := range out {
		a[i] = clamp01(v + d.rng.NormFloat64()*d.noise)
	}
	if d.noise > d.opts.NoiseMin {
		d.noise *= d.opts.NoiseDecay
	}
	return d.actionToControl(a)
}

// Observe feeds back the KPIs measured for (ctx, x): store the
// transition and run minibatch updates of critic and actor.
func (d *DDPG) Observe(ctx core.Context, x core.Control, k core.KPIs) {
	cost := d.opts.Weights.Cost(k)
	if !d.opts.Constraints.Satisfied(k) {
		cost = d.opts.MaxCost
	}
	d.buf[d.bufNext] = sample{
		ctx:    core.ContextFeatures(ctx),
		action: core.ControlFeatures(x),
		cost:   cost / d.costScale,
	}
	d.bufNext++
	if d.bufNext == len(d.buf) {
		d.bufNext = 0
		d.bufFull = true
	}
	n := d.bufLen()
	if n < d.opts.BatchSize {
		return
	}
	for u := 0; u < d.opts.UpdatesPerStep; u++ {
		d.update()
	}
}

func (d *DDPG) bufLen() int {
	if d.bufFull {
		return len(d.buf)
	}
	return d.bufNext
}

// update runs one critic regression step and one deterministic policy
// gradient step on a random minibatch.
func (d *DDPG) update() {
	batch := d.opts.BatchSize
	n := d.bufLen()
	in := make([]float64, core.ContextDims+core.ControlDims)

	// Critic: minimize ½(Q(c,a) − cost)² over the batch.
	d.critic.ZeroGrad()
	for b := 0; b < batch; b++ {
		s := d.buf[d.rng.Intn(n)]
		copy(in, s.ctx)
		copy(in[core.ContextDims:], s.action)
		q := d.critic.Forward(in)[0]
		d.critic.Backward([]float64{(q - s.cost) / float64(batch)})
	}
	d.criticOpt.Step(d.critic)

	// Actor: descend the critic's action gradient at the actor's action.
	d.actor.ZeroGrad()
	for b := 0; b < batch; b++ {
		s := d.buf[d.rng.Intn(n)]
		a := d.actor.Forward(s.ctx)
		copy(in, s.ctx)
		copy(in[core.ContextDims:], a)
		d.critic.Forward(in)
		d.critic.ZeroGrad()
		dIn := d.critic.Backward([]float64{1.0 / float64(batch)})
		// Re-run the actor forward pass (the critic pass reused nothing of
		// it) and push dQ/da through it.
		d.actor.Forward(s.ctx)
		d.actor.Backward(dIn[core.ContextDims:])
	}
	d.critic.ZeroGrad() // discard gradients accumulated during the actor pass
	d.actorOpt.Step(d.actor)
}

// Noise returns the current exploration noise level (for diagnostics).
func (d *DDPG) Noise() float64 { return d.noise }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
