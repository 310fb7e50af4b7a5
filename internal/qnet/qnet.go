// Package qnet implements the paper's primary contribution: the ELM
// Q-Network and OS-ELM Q-Network reinforcement-learning agents of
// Algorithm 1, with the four stabilization techniques of §3:
//
//  1. Simplified output model (§3.1): the network maps the concatenation of
//     state and action to a *scalar* Q value, so the input size is
//     |state| + 1 (5 for CartPole) and the output size is 1.
//  2. Q-value clipping (§3.1): Bellman targets are clipped to [-1, 1].
//  3. Random update (§3.2): each step triggers a sequential update only
//     with probability ε₂ — the buffer-free replacement for experience
//     replay.
//  4. Spectral normalization for α + L2 regularization for β (§3.3):
//     α ← α/σmax(α) once at init, and δI added in the initial training.
//
// The five ELM/OS-ELM designs of §4.1 are expressed as Variant values; the
// DQN baseline lives in internal/dqn and the fixed-point FPGA design in
// internal/fpga.
package qnet

import (
	"fmt"
	"math"
	"time"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/mat"
	"oselmrl/internal/obs"
	"oselmrl/internal/oselm"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// Variant selects which of the paper's ELM/OS-ELM designs to run (§4.1
// designs (1)-(5)).
type Variant int

const (
	// VariantELM is design (1): batch ELM with simplified output model and
	// Q-value clipping; it retrains from buffer D each time D fills.
	VariantELM Variant = iota
	// VariantOSELM is design (2): OS-ELM with simplified output model,
	// Q-value clipping and random update, no regularization.
	VariantOSELM
	// VariantOSELML2 is design (3): OS-ELM + L2 regularization for β.
	VariantOSELML2
	// VariantOSELMLipschitz is design (4): OS-ELM + spectral normalization
	// for α.
	VariantOSELMLipschitz
	// VariantOSELML2Lipschitz is design (5): both techniques — the paper's
	// headline design and the one the FPGA implements.
	VariantOSELML2Lipschitz
)

// String returns the paper's name for the design.
func (v Variant) String() string {
	switch v {
	case VariantELM:
		return "ELM"
	case VariantOSELM:
		return "OS-ELM"
	case VariantOSELML2:
		return "OS-ELM-L2"
	case VariantOSELMLipschitz:
		return "OS-ELM-Lipschitz"
	case VariantOSELML2Lipschitz:
		return "OS-ELM-L2-Lipschitz"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// SpectralNormalize reports whether the variant normalizes α (§3.3).
func (v Variant) SpectralNormalize() bool {
	return v == VariantOSELMLipschitz || v == VariantOSELML2Lipschitz
}

// UsesL2 reports whether the variant regularizes the initial training.
func (v Variant) UsesL2() bool {
	return v == VariantOSELML2 || v == VariantOSELML2Lipschitz
}

// Sequential reports whether the variant performs OS-ELM sequential
// updates (false only for batch ELM).
func (v Variant) Sequential() bool { return v != VariantELM }

// Config holds the hyperparameters of Algorithm 1 with the paper's §4.1
// defaults.
type Config struct {
	// Variant selects the design.
	Variant Variant
	// ObservationSize and ActionCount describe the environment.
	ObservationSize, ActionCount int
	// Hidden is Ñ, the hidden-layer width.
	Hidden int
	// Epsilon1 is the initial probability of acting greedily (Algorithm 1
	// line 10: greedy iff r₁ < ε₁). Paper: 0.7.
	Epsilon1 float64
	// ExploreDecay multiplies the exploration probability (1 − ε₁) after
	// every episode. The paper states a constant ε₁ = 0.7, but its Figure 4
	// training curves plateau at a flat 200 steps, which is unreachable
	// with a permanent 30% random-action rate (see DESIGN.md §5) — so the
	// exploration rate must anneal. 1 keeps the literal constant-ε
	// algorithm; DefaultConfig uses 0.99.
	ExploreDecay float64
	// Epsilon2 is the random-update probability (line 21). Paper: 0.5.
	Epsilon2 float64
	// Gamma is the discount rate γ.
	Gamma float64
	// Delta is the L2 regularization parameter δ for the initial training;
	// ignored unless the variant uses L2. Paper: 1 for OS-ELM-L2, 0.5 for
	// OS-ELM-L2-Lipschitz.
	Delta float64
	// UpdateEvery is UPDATE_STEP: θ2 ← θ1 every this many episodes. Paper: 2.
	UpdateEvery int
	// ClipLow and ClipHigh bound the Bellman targets. Paper: -1, 1.
	ClipLow, ClipHigh float64
	// Activation is the hidden activation; the paper uses ReLU.
	Activation activation.Func
	// Seed drives every random choice the agent makes.
	Seed uint64
	// InitLow and InitHigh bound the uniform weight init (Algorithm 1
	// line 1 uses [0,1]; [-1,1] is the common ELM default). Zero values
	// select [-1, 1].
	InitLow, InitHigh float64
	// OneHotActions encodes the action as a one-hot vector instead of the
	// paper's scalar index, making the input size |state| + |actions|
	// (6 instead of 5 for CartPole). Extension beyond the paper; the
	// scalar encoding is the default and what §4.2 sizes the core for.
	OneHotActions bool
	// DoubleQ selects Double Q-learning targets (van Hasselt): the next
	// action is chosen by argmax over θ1 but its value is read from θ2,
	// reducing the max-operator's overestimation bias. Extension beyond
	// the paper (ablation X3).
	DoubleQ bool
	// StandardOutputModel uses the left-hand network of the paper's
	// Figure 2 — input is the state alone and the output layer has one Q
	// value per action, as in DQN — instead of the simplified output model
	// the paper proposes. One prediction evaluates all actions, but the
	// one-shot OS-ELM update must supply a full target vector, so the
	// untaken actions are trained toward their own current predictions
	// (a no-op target). Kept for the Figure 2 design-space comparison.
	StandardOutputModel bool
}

// DefaultConfig returns the paper's §4.1 parameters for a variant.
func DefaultConfig(v Variant, obsSize, actions, hidden int) Config {
	delta := 0.0
	switch v {
	case VariantOSELML2:
		delta = 1.0
	case VariantOSELML2Lipschitz:
		delta = 0.5
	}
	return Config{
		Variant:         v,
		ObservationSize: obsSize,
		ActionCount:     actions,
		Hidden:          hidden,
		Epsilon1:        0.7,
		ExploreDecay:    0.99,
		Epsilon2:        0.5,
		Gamma:           0.99,
		Delta:           delta,
		UpdateEvery:     2,
		ClipLow:         -1,
		ClipHigh:        1,
		Activation:      activation.ReLU,
		Seed:            1,
		InitLow:         -1,
		InitHigh:        1,
	}
}

func (c *Config) validate() error {
	if c.ObservationSize <= 0 || c.ActionCount <= 0 || c.Hidden <= 0 {
		return fmt.Errorf("qnet: invalid dimensions obs=%d actions=%d hidden=%d",
			c.ObservationSize, c.ActionCount, c.Hidden)
	}
	if c.Epsilon1 < 0 || c.Epsilon1 > 1 || c.Epsilon2 < 0 || c.Epsilon2 > 1 {
		return fmt.Errorf("qnet: epsilons must be in [0,1]: %g, %g", c.Epsilon1, c.Epsilon2)
	}
	if c.Gamma < 0 || c.Gamma > 1 {
		return fmt.Errorf("qnet: gamma must be in [0,1]: %g", c.Gamma)
	}
	if c.ClipLow >= c.ClipHigh {
		return fmt.Errorf("qnet: clip range [%g, %g] is empty", c.ClipLow, c.ClipHigh)
	}
	if c.UpdateEvery <= 0 {
		return fmt.Errorf("qnet: UpdateEvery must be positive")
	}
	if c.ExploreDecay <= 0 || c.ExploreDecay > 1 {
		return fmt.Errorf("qnet: ExploreDecay must be in (0, 1]: %g", c.ExploreDecay)
	}
	if c.Activation.F == nil {
		c.Activation = activation.ReLU
	}
	return nil
}

// Agent is an ELM or OS-ELM Q-Network agent implementing Algorithm 1.
type Agent struct {
	cfg Config
	rng *rng.RNG

	// theta1 and theta2 are Qθ1 and the fixed target Qθ2.
	theta1 *oselm.Model
	theta2 *oselm.Model

	buffer      *replay.InitStore
	globalStep  int
	exploreProb float64
	// targetsN / targetsClipped track the Bellman-target clip rate since
	// (re)initialization, published as the learn_clip_rate gauge at sync.
	targetsN, targetsClipped int64
	// batchTrained marks that the batch-ELM variant has completed at least
	// one training (its oselm initialized flag never sets).
	batchTrained bool
	dims         timing.OSELMDims
	counters     *timing.Counters

	// kernel evaluates every Q value, scratch holds the network input
	// [state..., action] and targetRow the target of a sequential update,
	// so a step allocates nothing.
	kernel    qKernel
	scratch   []float64
	targetRow []float64

	// obs receives structured events and metrics; nil (the default)
	// disables observability at the cost of one nil check per guard.
	obs *obs.Emitter
}

// New builds an agent from cfg.
func New(cfg Config) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	inputSize := cfg.ObservationSize + 1
	outputSize := 1
	switch {
	case cfg.StandardOutputModel:
		if cfg.OneHotActions {
			return nil, fmt.Errorf("qnet: StandardOutputModel and OneHotActions are mutually exclusive")
		}
		inputSize = cfg.ObservationSize
		outputSize = cfg.ActionCount
	case cfg.OneHotActions:
		inputSize = cfg.ObservationSize + cfg.ActionCount
	}
	a := &Agent{
		cfg:      cfg,
		rng:      rng.New(cfg.Seed),
		buffer:   replay.NewInitStore(cfg.Hidden),
		counters: timing.NewCounters(),
		dims: timing.OSELMDims{
			In:     inputSize,
			Hidden: cfg.Hidden,
			Out:    outputSize,
		},
		kernel:    newQKernel(cfg, inputSize, outputSize),
		scratch:   make([]float64, inputSize),
		targetRow: make([]float64, outputSize),
	}
	a.initModels()
	return a, nil
}

// MustNew is New that panics on configuration errors (tests, examples).
func MustNew(cfg Config) *Agent {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func (a *Agent) initModels() {
	opts := elm.Options{
		InitLow:                a.cfg.InitLow,
		InitHigh:               a.cfg.InitHigh,
		SpectralNormalizeAlpha: a.cfg.Variant.SpectralNormalize(),
	}
	delta := 0.0
	if a.cfg.Variant.UsesL2() {
		delta = a.cfg.Delta
	}
	base := elm.NewModel(a.dims.In, a.cfg.Hidden, a.dims.Out, a.cfg.Activation, a.rng, opts)
	a.theta1 = oselm.New(base, delta)
	a.theta2 = a.theta1.Clone() // Algorithm 1 line 4: θ2 ← θ1
	a.buffer.Clear()
	a.globalStep = 0
	a.exploreProb = 1 - a.cfg.Epsilon1
	a.batchTrained = false
	a.targetsN, a.targetsClipped = 0, 0
}

// Name returns the paper's design name.
func (a *Agent) Name() string { return a.cfg.Variant.String() }

// Config returns the agent's configuration.
func (a *Agent) Config() Config { return a.cfg }

// Counters exposes the timing counters accumulated so far.
func (a *Agent) Counters() *timing.Counters { return a.counters }

// SetObserver installs the observability emitter (harness.Observable).
func (a *Agent) SetObserver(e *obs.Emitter) { a.obs = e }

// Trained reports whether initial training has completed (OS-ELM) or the
// first batch training has run (ELM).
func (a *Agent) Trained() bool { return a.theta1.Initialized() || a.batchTrained }

// encode writes the simplified-output-model input into dst: [state...,
// action] with the action as a scalar by default (the paper's input size
// for CartPole is 5 = 4 states + 1 action), or [state..., onehot(action)]
// when OneHotActions is set.
func (a *Agent) encode(dst, state []float64, action int) []float64 {
	copy(dst, state)
	if !a.cfg.OneHotActions {
		dst[len(state)] = float64(action)
		return dst
	}
	for i := 0; i < a.cfg.ActionCount; i++ {
		v := 0.0
		if i == action {
			v = 1
		}
		dst[len(state)+i] = v
	}
	return dst
}

// qValue evaluates Q(s, a) on the given model.
func (a *Agent) qValue(m *oselm.Model, state []float64, action int) float64 {
	return a.kernel.values(m.Model, state)[action]
}

// maxQ returns max over actions of Q(s, ·) on model m, and the argmax with
// uniform random tie-breaking (before training all Q values are 0, so
// deterministic argmax would freeze on action 0).
func (a *Agent) maxQ(m *oselm.Model, state []float64) (best float64, argmax int) {
	best = math.Inf(-1)
	ties := 0
	for act, q := range a.kernel.values(m.Model, state) {
		switch {
		case q > best:
			best, argmax, ties = q, act, 1
		case q == best:
			ties++
			if a.rng.Intn(ties) == 0 {
				argmax = act
			}
		}
	}
	return best, argmax
}

// predictPhase is predict_init before the initial training completes and
// predict_seq after, matching the paper's Figure 5 legend. The batch ELM
// retrains forever and never enters a sequential regime, so its
// predictions all count as predict_init — matching the paper's ELM bars
// (init_train + predict_init dominant).
func (a *Agent) predictPhase() timing.Phase {
	if a.theta1.Initialized() {
		return timing.PhasePredictSeq
	}
	return timing.PhasePredictInit
}

// modelSeconds converts one phase invocation's work into modelled device
// seconds on the software stack this agent represents (§4.3: PyTorch on
// the Cortex-A9) — the modelled counterpart the span tracer records next
// to measured wall time.
func modelSeconds(p timing.Phase, work float64) float64 {
	return timing.CortexA9PyTorch.Seconds(p, 1, work)
}

// SelectAction implements Algorithm 1 lines 10-13: greedy with probability
// ε₁, uniformly random otherwise.
func (a *Agent) SelectAction(state []float64) int {
	if a.rng.Float64() >= a.exploreProb {
		phase := a.predictPhase()
		sp := a.obs.StartSpan(string(phase))
		_, act := a.maxQ(a.theta1, state)
		// One framework call: a NumPy/PyTorch implementation stacks the
		// action candidates into a single batched forward pass.
		work := float64(a.cfg.ActionCount) * a.dims.PredictFlops()
		a.counters.Add(phase, work)
		if sp.Active() {
			sp.EndModelled(modelSeconds(phase, work))
		}
		return act
	}
	return a.rng.Intn(a.cfg.ActionCount)
}

// GreedyAction returns argmax_a Q(s,a) without exploration (evaluation).
func (a *Agent) GreedyAction(state []float64) int {
	_, act := a.maxQ(a.theta1, state)
	return act
}

// target computes the clipped Bellman target of Algorithm 1 lines 19/22:
// clip(r + γ(1-d)·max_a Qθ2(s', a), ClipLow, ClipHigh).
func (a *Agent) target(t replay.Transition) float64 {
	var next float64
	if !t.Done {
		if a.cfg.DoubleQ {
			// Double Q: θ1 selects, θ2 evaluates.
			_, act := a.maxQ(a.theta1, t.NextState)
			next = a.qValue(a.theta2, t.NextState, act)
		} else {
			next, _ = a.maxQ(a.theta2, t.NextState)
		}
	}
	y := t.Reward + a.cfg.Gamma*boolTo01(!t.Done)*next
	clipped := false
	if y < a.cfg.ClipLow {
		y = a.cfg.ClipLow
		clipped = true
	}
	if y > a.cfg.ClipHigh {
		y = a.cfg.ClipHigh
		clipped = true
	}
	a.targetsN++
	if clipped {
		a.targetsClipped++
	}
	if a.obs != nil {
		a.obs.Inc(obs.MetricTargets, 1)
		if clipped {
			a.obs.Inc(obs.MetricTargetsClipped, 1)
		}
	}
	return y
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Observe implements Algorithm 1 lines 14-22: store the transition and run
// the appropriate update.
func (a *Agent) Observe(t replay.Transition) error {
	a.globalStep++
	if !a.theta1.Initialized() {
		a.bufferAdd(t)
		// Line 16-19: once D holds Ñ transitions, run the initial (ELM:
		// batch) training.
		if a.buffer.Full() {
			return a.trainFromBuffer()
		}
		return nil
	}
	if !a.cfg.Variant.Sequential() {
		// Batch ELM keeps refilling D and retraining when it is full.
		a.bufferAdd(t)
		if a.buffer.Full() {
			return a.trainFromBuffer()
		}
		return nil
	}
	// Lines 20-22: random update — sequential training with probability ε₂.
	if a.rng.Float64() < a.cfg.Epsilon2 {
		return a.sequentialUpdate(t)
	}
	a.obs.Inc(obs.MetricSeqSkipped, 1)
	return nil
}

// bufferAdd stores one transition in D under a "buffer_refill" trace
// span, tracking occupancy.
func (a *Agent) bufferAdd(t replay.Transition) {
	sp := a.obs.StartSpan("buffer_refill")
	a.buffer.Add(t)
	if a.obs != nil {
		a.obs.SetGauge(obs.GaugeBufferOccupancy, float64(a.buffer.Len())/float64(a.buffer.Cap()))
	}
	sp.End()
}

// trainFromBuffer runs the initial/batch training on buffer D with targets
// computed from θ2 (Algorithm 1 lines 17-19), then clears D.
func (a *Agent) trainFromBuffer() error {
	sp := a.obs.StartSpan(string(timing.PhaseInitTrain))
	t0 := a.obs.Now()
	retrain := a.Trained() // refilled-buffer retrain vs first initial training
	trans := a.buffer.Drain()
	k := len(trans)
	x := mat.Zeros(k, a.dims.In)
	y := mat.Zeros(k, a.dims.Out)
	for i, tr := range trans {
		if a.cfg.StandardOutputModel {
			x.SetRow(i, tr.State)
			// The taken action trains toward the Bellman target; untaken
			// actions toward their current predictions (no-op targets).
			y.SetRow(i, a.kernel.values(a.theta1.Model, tr.State))
			y.Set(i, tr.Action, a.target(tr))
			continue
		}
		x.SetRow(i, a.encode(a.scratch, tr.State, tr.Action))
		y.Set(i, 0, a.target(tr))
	}
	// Target evaluations on θ2: k×ActionCount predictions.
	nEvals := int64(k * a.cfg.ActionCount)
	work := float64(nEvals)*a.dims.PredictFlops() + a.dims.InitTrainFlops(k)

	var err error
	if a.cfg.Variant.Sequential() {
		err = a.theta1.InitTrain(x, y)
	} else {
		// Batch ELM: with L2 off this is the pseudo-inverse solve of Eq. 3.
		// A tiny ridge keeps the Gram matrix invertible when D contains
		// duplicate states, matching the pseudo-inverse's truncation.
		err = a.theta1.Model.TrainBatch(x, y, 1e-8)
		// ELM has no separate sequential phase; keep θ2 in sync with the
		// freshly trained θ1 so targets are not computed from the initial
		// random network forever (see DESIGN.md interpretation note).
		a.theta2.CopyStateFrom(a.theta1)
		a.batchTrained = true
	}
	a.counters.Add(timing.PhaseInitTrain, work)
	if a.obs != nil {
		model := modelSeconds(timing.PhaseInitTrain, work)
		sp.EndModelled(model)
		d := time.Since(t0)
		a.obs.AddWall(string(timing.PhaseInitTrain), d)
		a.obs.Inc(obs.MetricInitTrains, 1)
		a.obs.SetGauge(obs.GaugeBufferOccupancy, 0)
		a.obs.Emit(obs.EventInitTrain, 0, map[string]float64{
			"size":     float64(k),
			"step":     float64(a.globalStep),
			"retrain":  boolTo01(retrain),
			"dur_ms":   float64(d) / float64(time.Millisecond),
			"model_ms": model * 1e3,
		})
	}
	return err
}

// sequentialUpdate runs one rank-1 OS-ELM update toward the clipped target
// (Algorithm 1 line 22).
func (a *Agent) sequentialUpdate(t replay.Transition) error {
	sp := a.obs.StartSpan(string(timing.PhaseSeqTrain))
	t0 := a.obs.Now()
	y := a.target(t)
	var err error
	// pred is Qθ1(s, a) before the update; y − pred is the TD error the
	// update corrects. The extra prediction is an observability probe, run
	// only when an emitter is attached, and excluded from the work counters
	// (the real device would not execute it).
	pred := math.NaN()
	if a.cfg.StandardOutputModel {
		cur := a.targetRow
		copy(cur, a.kernel.values(a.theta1.Model, t.State))
		pred = cur[t.Action]
		cur[t.Action] = y
		err = a.theta1.SeqTrainOne(t.State, cur)
	} else {
		if a.obs != nil {
			pred = a.qValue(a.theta1, t.State, t.Action)
		}
		a.targetRow[0] = y
		err = a.theta1.SeqTrainOne(a.encode(a.scratch, t.State, t.Action), a.targetRow)
	}
	// Work: the target's θ2 evaluations plus the rank-1 update itself.
	work := float64(a.cfg.ActionCount)*a.dims.PredictFlops() + a.dims.SeqTrainFlops()
	a.counters.Add(timing.PhaseSeqTrain, work)
	if a.obs != nil {
		model := modelSeconds(timing.PhaseSeqTrain, work)
		sp.EndModelled(model)
		d := time.Since(t0)
		tdErr := y - pred
		a.obs.AddWall(string(timing.PhaseSeqTrain), d)
		a.obs.Inc(obs.MetricSeqUpdates, 1)
		a.obs.Observe(obs.HistLearnTDErrorAbs, math.Abs(tdErr))
		a.obs.Observe(obs.HistLearnQValue, pred)
		a.obs.Emit(obs.EventSeqUpdate, 0, map[string]float64{
			"step":     float64(a.globalStep),
			"target":   y,
			"td_error": tdErr,
			"dur_ms":   float64(d) / float64(time.Millisecond),
			"model_ms": model * 1e3,
		})
	}
	return err
}

// EndEpisode implements Algorithm 1 lines 23-24: every UpdateEvery
// episodes, sync the target network θ2 ← θ1. Episodes are 1-based.
func (a *Agent) EndEpisode(episode int) {
	a.exploreProb *= a.cfg.ExploreDecay
	if !a.cfg.Variant.Sequential() {
		return // θ2 sync is OS-ELM-specific (paper §3.1)
	}
	if episode%a.cfg.UpdateEvery == 0 {
		a.theta2.CopyStateFrom(a.theta1)
		if a.obs != nil {
			// σmax(β) is the Lipschitz bound the §3.3 regularization caps;
			// tracked at sync points so its drift over a run is inspectable,
			// together with the learn_* numeric-health gauges.
			h := a.theta1.Health()
			a.obs.Inc(obs.MetricTheta2Syncs, 1)
			a.obs.SetGauge(obs.GaugeBetaSigmaMax, h.BetaSigmaMax)
			a.obs.Observe(obs.GaugeBetaSigmaMax, h.BetaSigmaMax)
			a.obs.SetGauge(obs.GaugeLearnBetaNorm, h.BetaNorm)
			if a.theta1.Initialized() {
				a.obs.SetGauge(obs.GaugeLearnPTrace, h.PTrace)
				a.obs.SetGauge(obs.GaugeLearnPCond, h.PCondProxy)
			}
			if a.targetsN > 0 {
				a.obs.SetGauge(obs.GaugeLearnClipRate,
					float64(a.targetsClipped)/float64(a.targetsN))
			}
			a.obs.Emit(obs.EventTheta2Sync, episode, map[string]float64{
				"beta_sigma_max": h.BetaSigmaMax,
				"beta_norm":      h.BetaNorm,
			})
		}
	}
}

// Reinitialize draws fresh random weights — the §4.3 reset rule for
// unpromising initializations ("reset if they did not complete the task
// after 300 episodes"). Timing counters are preserved: the paper's
// time-to-complete includes failed attempts.
func (a *Agent) Reinitialize() { a.initModels() }

// BetaSigmaMax exposes σmax(β), the agent's Lipschitz bound after spectral
// normalization (§3.3), for the stability diagnostics.
func (a *Agent) BetaSigmaMax() float64 { return a.theta1.BetaSigmaMax() }

// LipschitzBound returns σmax(α)·Lip(G)·σmax(β) for θ1.
func (a *Agent) LipschitzBound() float64 { return a.theta1.LipschitzBound() }

// Theta1 exposes the online model for white-box tests.
func (a *Agent) Theta1() *oselm.Model { return a.theta1 }

// Theta2 exposes the target model for white-box tests.
func (a *Agent) Theta2() *oselm.Model { return a.theta2 }

// GlobalStep returns the number of Observe calls since (re)initialization.
func (a *Agent) GlobalStep() int { return a.globalStep }

// RestoreModels installs persisted θ1/θ2 models (internal/persist). The
// models must match the agent's input/hidden/output dimensions, which
// depend on OneHotActions and StandardOutputModel.
func (a *Agent) RestoreModels(theta1, theta2 *oselm.Model) error {
	for _, m := range []*oselm.Model{theta1, theta2} {
		if m.InputSize() != a.dims.In || m.HiddenSize() != a.dims.Hidden || m.OutputSize() != a.dims.Out {
			return fmt.Errorf("qnet: restored model is %d/%d/%d, agent expects %d/%d/%d",
				m.InputSize(), m.HiddenSize(), m.OutputSize(), a.dims.In, a.dims.Hidden, a.dims.Out)
		}
	}
	a.theta1 = theta1
	a.theta2 = theta2
	return nil
}

// ExploreProb returns the current per-step random-action probability.
func (a *Agent) ExploreProb() float64 { return a.exploreProb }
