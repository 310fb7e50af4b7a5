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
	if c.StandardOutputModel && c.OneHotActions {
		return fmt.Errorf("qnet: StandardOutputModel and OneHotActions are mutually exclusive")
	}
	if c.Activation.F == nil {
		c.Activation = activation.ReLU
	}
	return nil
}

// dims returns the network dimensions the config implies: input [state,
// action] and one output under the simplified output model, [state,
// onehot(action)] with OneHotActions, or the state alone and one output
// per action with StandardOutputModel.
func (c Config) dims() timing.OSELMDims {
	d := timing.OSELMDims{In: c.ObservationSize + 1, Hidden: c.Hidden, Out: 1}
	switch {
	case c.StandardOutputModel:
		d.In, d.Out = c.ObservationSize, c.ActionCount
	case c.OneHotActions:
		d.In = c.ObservationSize + c.ActionCount
	}
	return d
}

// Agent is an ELM or OS-ELM Q-Network agent: Algorithm 1's control loop
// over a Datapath. New runs it on the float64 datapath; internal/fpga
// runs the same loop on the fixed-point core.
type Agent struct {
	cfg Config
	rng *rng.RNG
	dp  Datapath

	// floatNet is the float datapath's state when the agent runs on one
	// (New), nil otherwise; the float-only accessors read its models.
	*floatNet

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
	// targets holds the init_train targets of one drained buffer.
	targets []float64

	// obs receives structured events and metrics; nil (the default)
	// disables observability at the cost of one nil check per guard.
	obs *obs.Emitter
	// seqEvent is the seq_update event's data, rewritten on every update;
	// sinks keep no event data past Write, so one map serves them all.
	seqEvent map[string]float64
}

// New builds an agent from cfg on the float64 datapath.
func New(cfg Config) (*Agent, error) {
	return NewWith(cfg, func(cfg Config) (Datapath, error) { return NewFloat(cfg), nil })
}

// NewWith validates cfg, applying its defaults, and builds an agent that
// runs Algorithm 1 on the datapath build returns for the validated
// config.
func NewWith(cfg Config, build func(Config) (Datapath, error)) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dp, err := build(cfg)
	if err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:      cfg,
		rng:      rng.New(cfg.Seed),
		dp:       dp,
		buffer:   replay.NewInitStore(cfg.Hidden),
		counters: timing.NewCounters(),
		dims:     cfg.dims(),
		targets:  make([]float64, cfg.Hidden),
	}
	if f, ok := dp.(*Float); ok {
		a.floatNet = f.floatNet
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
	a.dp.Reset(a.rng)
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
func (a *Agent) Trained() bool { return a.dp.Initialized() || a.batchTrained }

// maxQ returns the largest of the Q values qs and its action, breaking
// ties uniformly at random (before training all Q values are 0, so
// deterministic argmax would freeze on action 0).
func (a *Agent) maxQ(qs []float64) (best float64, argmax int) {
	best = math.Inf(-1)
	ties := 0
	for act, q := range qs {
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
	if a.dp.Initialized() {
		return timing.PhasePredictSeq
	}
	return timing.PhasePredictInit
}

// SelectAction implements Algorithm 1 lines 10-13: greedy with probability
// ε₁, uniformly random otherwise.
func (a *Agent) SelectAction(state []float64) int {
	if a.rng.Float64() >= a.exploreProb {
		phase := a.predictPhase()
		sp := a.obs.StartSpan(string(phase))
		mark := a.dp.Mark()
		_, act := a.maxQ(a.dp.Values(state, false))
		model := a.dp.Charge(a.counters, phase, float64(a.cfg.ActionCount)*a.dims.PredictFlops(), mark)
		if sp.Active() {
			sp.EndModelled(model)
		}
		return act
	}
	return a.rng.Intn(a.cfg.ActionCount)
}

// GreedyAction returns argmax_a Q(s,a) without exploration (evaluation).
func (a *Agent) GreedyAction(state []float64) int {
	_, act := a.maxQ(a.dp.Values(state, false))
	return act
}

// target computes the clipped Bellman target of Algorithm 1 lines 19/22:
// clip(r + γ(1-d)·max_a Qθ2(s', a), ClipLow, ClipHigh).
func (a *Agent) target(t replay.Transition) float64 {
	var next float64
	if !t.Done {
		if a.cfg.DoubleQ {
			// Double Q: θ1 selects, θ2 evaluates.
			_, act := a.maxQ(a.dp.Values(t.NextState, false))
			next = a.dp.Values(t.NextState, true)[act]
		} else {
			next, _ = a.maxQ(a.dp.Values(t.NextState, true))
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
	// Lines 16-19: until θ1's initial training, D collects Ñ transitions
	// and then trains; batch ELM keeps refilling D and retraining.
	if !a.dp.Initialized() || !a.cfg.Variant.Sequential() {
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
	mark := a.dp.Mark()
	retrain := a.Trained() // refilled-buffer retrain vs first initial training
	trans := a.buffer.Drain()
	k := len(trans)
	y := a.targets[:k]
	for i, tr := range trans {
		y[i] = a.target(tr)
	}
	var event map[string]float64
	if a.obs != nil {
		event = map[string]float64{
			"size":    float64(k),
			"step":    float64(a.globalStep),
			"retrain": boolTo01(retrain),
		}
	}
	err := a.dp.InitTrain(trans, y, event)
	if !a.cfg.Variant.Sequential() {
		a.batchTrained = true
	}
	// Target evaluations on θ2 (k×ActionCount predictions) plus the solve.
	work := float64(k*a.cfg.ActionCount)*a.dims.PredictFlops() + a.dims.InitTrainFlops(k)
	model := a.dp.Charge(a.counters, timing.PhaseInitTrain, work, mark)
	if a.obs != nil {
		sp.EndModelled(model)
		d := time.Since(t0)
		a.obs.AddWall(string(timing.PhaseInitTrain), d)
		a.obs.Inc(obs.MetricInitTrains, 1)
		a.obs.SetGauge(obs.GaugeBufferOccupancy, 0)
		event["dur_ms"] = float64(d) / float64(time.Millisecond)
		event["model_ms"] = model * 1e3
		a.obs.Emit(obs.EventInitTrain, 0, event)
	}
	return err
}

// sequentialUpdate runs one rank-1 OS-ELM update toward the clipped target
// (Algorithm 1 line 22).
func (a *Agent) sequentialUpdate(t replay.Transition) error {
	sp := a.obs.StartSpan(string(timing.PhaseSeqTrain))
	t0 := a.obs.Now()
	mark := a.dp.Mark()
	y := a.target(t)
	// pred is Qθ1(s, a) before the update; y − pred is the TD error the
	// update corrects. The probe runs only when an emitter is attached and
	// is invisible to the cost model (the real device would not execute
	// it).
	pred := math.NaN()
	if a.obs != nil {
		pred = a.dp.Probe(t.State, t.Action)
	}
	err := a.dp.SeqTrain(t.State, t.Action, y)
	// Work: the target's θ2 evaluations plus the rank-1 update itself.
	work := float64(a.cfg.ActionCount)*a.dims.PredictFlops() + a.dims.SeqTrainFlops()
	model := a.dp.Charge(a.counters, timing.PhaseSeqTrain, work, mark)
	if a.obs != nil {
		sp.EndModelled(model)
		d := time.Since(t0)
		tdErr := y - pred
		a.obs.AddWall(string(timing.PhaseSeqTrain), d)
		a.obs.Inc(obs.MetricSeqUpdates, 1)
		a.obs.Observe(obs.HistLearnTDErrorAbs, math.Abs(tdErr))
		a.obs.Observe(obs.HistLearnQValue, pred)
		if a.seqEvent == nil {
			a.seqEvent = make(map[string]float64, 5)
		}
		ev := a.seqEvent
		ev["step"] = float64(a.globalStep)
		ev["target"] = y
		ev["td_error"] = tdErr
		ev["dur_ms"] = float64(d) / float64(time.Millisecond)
		ev["model_ms"] = model * 1e3
		a.obs.Emit(obs.EventSeqUpdate, 0, ev)
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
	if episode%a.cfg.UpdateEvery != 0 || !a.dp.Sync() || a.obs == nil {
		return
	}
	// σmax(β) is the Lipschitz bound the §3.3 regularization caps; tracked
	// at sync points so its drift over a run is inspectable, together with
	// the learn_* numeric-health gauges.
	h := a.dp.Health()
	a.obs.Inc(obs.MetricTheta2Syncs, 1)
	a.obs.SetGauge(obs.GaugeBetaSigmaMax, h.BetaSigmaMax)
	a.obs.Observe(obs.GaugeBetaSigmaMax, h.BetaSigmaMax)
	a.obs.SetGauge(obs.GaugeLearnBetaNorm, h.BetaNorm)
	if a.dp.Initialized() {
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

// Reinitialize draws fresh random weights — the §4.3 reset rule for
// unpromising initializations ("reset if they did not complete the task
// after 300 episodes"). Timing counters are preserved: the paper's
// time-to-complete includes failed attempts.
func (a *Agent) Reinitialize() { a.initModels() }

// GlobalStep returns the number of Observe calls since (re)initialization.
func (a *Agent) GlobalStep() int { return a.globalStep }

// ExploreProb returns the current per-step random-action probability.
func (a *Agent) ExploreProb() float64 { return a.exploreProb }

// The accessors below read the float datapath's models; they are for
// agents built by New.

// BetaSigmaMax exposes σmax(β), the agent's Lipschitz bound after spectral
// normalization (§3.3), for the stability diagnostics.
func (a *Agent) BetaSigmaMax() float64 { return a.theta1.BetaSigmaMax() }

// LipschitzBound returns σmax(α)·Lip(G)·σmax(β) for θ1.
func (a *Agent) LipschitzBound() float64 { return a.theta1.LipschitzBound() }

// Theta1 exposes the online model for white-box tests.
func (a *Agent) Theta1() *oselm.Model { return a.theta1 }

// Theta2 exposes the target model for white-box tests.
func (a *Agent) Theta2() *oselm.Model { return a.theta2 }

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
