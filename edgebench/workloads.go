package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/oran"
	"repro/internal/ran"
	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// workload is one set of inputs the benchmark drives. Every run of a
// workload is a sequence of identical episodes: each episode sets the
// workload up from the seed (testbed, agent, history fill and, on oran, the
// loopback deployment) and then times a fixed number of closed-loop
// control periods.
type workload struct {
	name    string
	grid    core.GridSpec
	weights core.CostWeights
	cons    core.Constraints
	users   []ran.User
	// shadowingDB is the per-period log-normal shadowing of every user's
	// SNR, which makes the context change from period to period.
	shadowingDB float64
	engine      core.EngineSelector
	acq         core.AcquisitionMode
	// window is the exact engine's MaxObservations; the history fill stops
	// at exactly this size, so the first timed Observe evicts half of it.
	window int
	// inducing is the sparse engine's basis budget; the history fill runs
	// until the basis is full.
	inducing int
	// oran puts the agent behind the loopback O-RAN deployment, with one
	// registry shared by agent, testbed and deployment.
	oran bool
	// ckptEvery is the Checkpointer.Tick save interval in periods; 0 keeps
	// the tick a no-op.
	ckptEvery int
	// episode is the number of timed periods per episode: whole eviction
	// cycles of window/2 periods on windowed workloads.
	episode int
	// seeds is the number of episode seeds a run cycles through, in whole
	// rounds: more seeds average the work over more histories.
	seeds int
	// minEpisodes is the fewest episodes a run makes, so that at least ten
	// periods lie beyond the p95.
	minEpisodes int
	// maxViolationPct, when positive, fails the run if the share of timed
	// periods breaking a constraint exceeds it.
	maxViolationPct float64
}

// workloads returns the benchmark's workloads by name.
func workloads() map[string]workload {
	fig9 := core.Constraints{MaxDelay: 0.4, MinMAP: 0.5}
	w := core.CostWeights{Delta1: 1, Delta2: 8}
	one := []ran.User{{SNRdB: 35}}
	big := core.GridSpec{Levels: 31, MinResolution: 0.1, MinAirtime: 0.1}
	big.LevelsPerDim[4] = 8
	return map[string]workload{
		// Fig. 9: the 11⁴ grid swept exhaustively by the exact engine.
		"paper": {
			name: "paper", grid: core.DefaultGridSpec(), weights: w, cons: fig9, users: one,
			engine: core.EngineExact, acq: core.AcqExhaustive, window: 200,
			episode: 100, seeds: 2, minEpisodes: 2, maxViolationPct: 10,
		},
		// The Fig. 9 scenario on the 31⁴×8 split-inference grid: adaptive
		// acquisition over the sparse engine.
		"biggrid": {
			name: "biggrid", grid: big, weights: w, cons: fig9, users: one,
			engine: core.EngineSparse, acq: core.AcqAuto, inducing: 128,
			episode: 64, seeds: 4, minEpisodes: 4,
		},
		// Fig. 12's multi-user setting behind the O-RAN control plane, with
		// a checkpoint tick after every period.
		"oran": {
			name: "oran", grid: core.GridSpec{Levels: 3, MinResolution: 0.1, MinAirtime: 0.1},
			weights: w, cons: core.Constraints{MaxDelay: 2, MinMAP: 0.6},
			users: testbed.HeterogeneousUsers(4), shadowingDB: 2,
			engine: core.EngineExact, acq: core.AcqExhaustive, window: 60,
			oran: true, ckptEvery: 10, episode: 600, seeds: 1, minEpisodes: 1,
		},
	}
}

// rig is one set-up workload: the agent, the environment StepCtx drives and
// the probes that time the calls into each layer.
type rig struct {
	agent *core.Agent
	// env is what StepCtx drives: a probe around the testbed, or around
	// the deployment's Environment on oran.
	env core.Environment
	// outer probes the environment StepCtx calls; inner probes the testbed
	// inside it.
	outer, inner *probe
	dep          *oran.Deployment
	ckpt         *oran.Checkpointer
	reg          *telemetry.Registry
	cancel       context.CancelFunc
}

// close tears the rig down.
func (r *rig) close() error {
	defer r.cancel()
	if r.dep != nil {
		return r.dep.Close()
	}
	return nil
}

// setUp builds the workload's rig from the seed: testbed, agent, history
// fill and, on oran, the deployment. tr is nil outside traced episodes.
// Traced episodes attach a registry to the agent; oran always has one.
func setUp(w workload, seed int64, tr *tracer, ckptDir string) (*rig, error) {
	cfg := testbed.DefaultConfig()
	cfg.ShadowingStdDB = w.shadowingDB
	tb, err := testbed.New(cfg, w.users, seed)
	if err != nil {
		return nil, err
	}
	var reg *telemetry.Registry
	if tr != nil || w.oran {
		reg = telemetry.NewRegistry()
	}
	if w.oran {
		tb.Instrument(reg)
	}
	agent, err := core.NewAgent(core.Options{
		Grid:             w.grid,
		Weights:          w.weights,
		Constraints:      w.cons,
		MaxObservations:  w.window,
		Engine:           w.engine,
		InducingPoints:   w.inducing,
		Acquisition:      w.acq,
		InferenceWorkers: 1,
		Telemetry:        reg,
	})
	if err != nil {
		return nil, err
	}
	if err := fillHistory(w, agent, tb, seed); err != nil {
		return nil, err
	}
	inner := newProbe(tb, tr, "testbed.context", "testbed.measure")
	ctx, cancel := context.WithCancel(context.Background())
	r := &rig{agent: agent, inner: inner, reg: reg, cancel: cancel}
	if !w.oran {
		r.outer = newProbe(inner.wrapped(), tr, "env.context", "env.measure")
		r.env = r.outer.wrapped()
		r.ckpt, err = oran.NewCheckpointer(ckptDir, 0)
		if err != nil {
			cancel()
			return nil, err
		}
		return r, nil
	}
	dep, err := oran.Deploy(ctx, inner.wrapped(), oran.DeployOptions{
		Telemetry:       reg,
		CheckpointDir:   ckptDir,
		CheckpointEvery: w.ckptEvery,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	r.dep = dep
	r.ckpt = dep.Checkpointer()
	r.outer = newProbe(dep.Env(), tr, "env.context", "env.measure")
	r.env = r.outer.wrapped()
	return r, nil
}

// fillHistory feeds the agent controls drawn from the grid by the seed and
// measured on the workload's testbed, until its GP reaches steady size: the
// exact window filled to exactly its bound, or the sparse basis full.
func fillHistory(w workload, agent *core.Agent, tb *testbed.Testbed, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	full := func() bool { return agent.Observations() >= w.window }
	limit := w.window
	if w.engine == core.EngineSparse {
		full = func() bool { return agent.InducingPoints() >= w.inducing }
		limit = 64 * w.inducing
	}
	size := w.grid.Size()
	for n := 0; !full(); n++ {
		if n >= limit {
			return fmt.Errorf("%s: GP not at steady size after %d observations", w.name, n)
		}
		x := w.grid.At(rng.Intn(size))
		c := tb.Context()
		k, err := tb.Measure(x)
		if err != nil {
			return fmt.Errorf("%s: history fill: %w", w.name, err)
		}
		if err := agent.Observe(c, x, k); err != nil {
			return fmt.Errorf("%s: history fill: %w", w.name, err)
		}
	}
	return nil
}

// gpBasis is the size of the agent's GP working set: the retained window
// under the exact engine, the inducing basis under the sparse one.
func gpBasis(a *core.Agent) int {
	if n := a.InducingPoints(); n > 0 {
		return n
	}
	return len(a.History(0))
}
