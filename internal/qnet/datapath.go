package qnet

import (
	"oselmrl/internal/elm"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// Datapath is the network Algorithm 1 runs on. Agent is the control loop
// every design shares — ε-greedy selection, buffer D, the clipped Bellman
// targets, the random update, ε decay and the θ2 cadence — and a Datapath
// holds θ1 and θ2, the arithmetic that evaluates and trains them, and the
// cost model that prices each phase. Float is the float64 datapath of the
// software designs; internal/fpga supplies the fixed-point core of the
// paper's design (7). Two designs on one loop differ in arithmetic and
// cost model alone, which is what the paper's speedup comparison assumes.
type Datapath interface {
	// Reset draws fresh θ1 weights from r and sets θ2 ← θ1, dropping any
	// training (Algorithm 1 lines 1-4).
	Reset(r *rng.RNG)
	// Initialized reports whether θ1's initial training has completed.
	Initialized() bool
	// Values returns Q(state, a) for every action a on θ1, or on θ2 when
	// target is set, in a slice the datapath owns and overwrites on the
	// next call.
	Values(state []float64, target bool) []float64
	// Probe returns θ1's Q(state, action) off the cost model: a telemetry
	// read the device would not execute.
	Probe(state []float64, action int) float64
	// InitTrain trains θ1 on the drained buffer D toward the clipped
	// targets y, one per transition (Algorithm 1 line 19). event, when
	// non-nil, is the init_train event being built; a datapath may add
	// its own fields to it.
	InitTrain(batch []replay.Transition, y []float64, event map[string]float64) error
	// SeqTrain runs one rank-1 sequential update of θ1 toward y for the
	// taken action (line 22).
	SeqTrain(state []float64, action int, y float64) error
	// Sync sets θ2 ← θ1 (line 24) and reports whether it did; a datapath
	// with nothing to sync yet returns false.
	Sync() bool
	// Mark reads the datapath's work clock at the start of a phase.
	Mark() int64
	// Charge records one invocation of phase p on c and returns its
	// modelled device seconds. flops is the phase's work in floating-point
	// operations and mark what Mark returned when the phase began.
	Charge(c *timing.Counters, p timing.Phase, flops float64, mark int64) float64
	// Health reports θ1's numeric health for the θ2-sync gauges.
	Health() oselm.NumericHealth
}

// floatNet is the state of the float64 datapath. A float Agent embeds it,
// which gives the float-only accessors (Theta1, RestoreModels,
// Evaluator) their models.
type floatNet struct {
	cfg Config
	// theta1 and theta2 are Qθ1 and the fixed target Qθ2.
	theta1, theta2 *oselm.Model
	// kernel evaluates every Q value, scratch holds the network input
	// [state..., action] and targetRow the target of a sequential update,
	// so a step allocates nothing.
	kernel    qKernel
	scratch   []float64
	targetRow []float64
}

// Float is the float64 datapath: θ1 and θ2 are oselm models and work is
// priced in flops on the PyTorch/Cortex-A9 stack of the software designs
// (§4.3). It runs every variant and extension: batch ELM retraining,
// Double Q, one-hot actions and the standard output model.
type Float struct{ *floatNet }

// NewFloat sizes a float datapath for cfg, which must be valid (NewWith
// hands its build function a validated config). Reset draws its weights.
func NewFloat(cfg Config) *Float {
	d := cfg.dims()
	return &Float{&floatNet{
		cfg:       cfg,
		kernel:    newQKernel(cfg),
		scratch:   make([]float64, d.In),
		targetRow: make([]float64, d.Out),
	}}
}

// Theta1 returns the online model θ1.
func (f *Float) Theta1() *oselm.Model { return f.theta1 }

// Reset implements Datapath.
func (f *Float) Reset(r *rng.RNG) {
	opts := elm.Options{
		InitLow:                f.cfg.InitLow,
		InitHigh:               f.cfg.InitHigh,
		SpectralNormalizeAlpha: f.cfg.Variant.SpectralNormalize(),
	}
	delta := 0.0
	if f.cfg.Variant.UsesL2() {
		delta = f.cfg.Delta
	}
	d := f.cfg.dims()
	base := elm.NewModel(d.In, d.Hidden, d.Out, f.cfg.Activation, r, opts)
	f.theta1 = oselm.New(base, delta)
	f.theta2 = f.theta1.Clone() // Algorithm 1 line 4: θ2 ← θ1
}

// Initialized implements Datapath.
func (f *Float) Initialized() bool { return f.theta1.Initialized() }

// Values implements Datapath.
func (f *Float) Values(state []float64, target bool) []float64 {
	m := f.theta1
	if target {
		m = f.theta2
	}
	return f.kernel.values(m.Model, state)
}

// Probe implements Datapath.
func (f *Float) Probe(state []float64, action int) float64 {
	return f.qValue(f.theta1, state, action)
}

// InitTrain implements Datapath. Under the standard output model the
// taken action trains toward its target and the untaken actions toward
// their current predictions (no-op targets).
func (f *Float) InitTrain(batch []replay.Transition, y []float64, _ map[string]float64) error {
	d := f.cfg.dims()
	x := mat.Zeros(len(batch), d.In)
	ym := mat.Zeros(len(batch), d.Out)
	for i, tr := range batch {
		if f.cfg.StandardOutputModel {
			x.SetRow(i, tr.State)
			ym.SetRow(i, f.kernel.values(f.theta1.Model, tr.State))
			ym.Set(i, tr.Action, y[i])
			continue
		}
		x.SetRow(i, f.encode(f.scratch, tr.State, tr.Action))
		ym.Set(i, 0, y[i])
	}
	if f.cfg.Variant.Sequential() {
		return f.theta1.InitTrain(x, ym)
	}
	// Batch ELM: with L2 off this is the pseudo-inverse solve of Eq. 3. A
	// tiny ridge keeps the Gram matrix invertible when D contains
	// duplicate states, matching the pseudo-inverse's truncation.
	err := f.theta1.Model.TrainBatch(x, ym, 1e-8)
	// ELM has no separate sequential phase; keep θ2 in sync with the
	// freshly trained θ1 so targets are not computed from the initial
	// random network forever (see DESIGN.md interpretation note).
	f.theta2.CopyStateFrom(f.theta1)
	return err
}

// SeqTrain implements Datapath.
func (f *Float) SeqTrain(state []float64, action int, y float64) error {
	if f.cfg.StandardOutputModel {
		cur := f.targetRow
		copy(cur, f.kernel.values(f.theta1.Model, state))
		cur[action] = y
		return f.theta1.SeqTrainOne(state, cur)
	}
	f.targetRow[0] = y
	return f.theta1.SeqTrainOne(f.encode(f.scratch, state, action), f.targetRow)
}

// Sync implements Datapath.
func (f *Float) Sync() bool {
	f.theta2.CopyStateFrom(f.theta1)
	return true
}

// Mark implements Datapath; float work is priced from flops alone.
func (f *Float) Mark() int64 { return 0 }

// Charge implements Datapath: one framework call per phase invocation (a
// NumPy/PyTorch implementation stacks the action candidates into a single
// batched forward pass) at the PyTorch/Cortex-A9 profile.
func (f *Float) Charge(c *timing.Counters, p timing.Phase, flops float64, _ int64) float64 {
	c.Add(p, flops)
	return timing.CortexA9PyTorch.Seconds(p, 1, flops)
}

// Health implements Datapath.
func (f *Float) Health() oselm.NumericHealth { return f.theta1.Health() }

// encode writes the simplified-output-model input into dst: [state...,
// action] with the action as a scalar by default (the paper's input size
// for CartPole is 5 = 4 states + 1 action), or [state..., onehot(action)]
// when OneHotActions is set.
func (f *floatNet) encode(dst, state []float64, action int) []float64 {
	copy(dst, state)
	if !f.cfg.OneHotActions {
		dst[len(state)] = float64(action)
		return dst
	}
	for i := 0; i < f.cfg.ActionCount; i++ {
		v := 0.0
		if i == action {
			v = 1
		}
		dst[len(state)+i] = v
	}
	return dst
}

// qValue evaluates Q(s, a) on the given model.
func (f *floatNet) qValue(m *oselm.Model, state []float64, action int) float64 {
	return f.kernel.values(m.Model, state)[action]
}
