package qnet

import (
	"fmt"

	"oselmrl/internal/elm"
)

// qKernel evaluates Q(s, ·) on an ELM network without allocating. Every
// float Q evaluation of the agent and the evaluator goes through one.
//
// Under the simplified output model the network input is [s..., action
// encoding], so the state part of x·α is the same for every action. The
// kernel forms it once per state (prefix), then per action adds the
// action input, the bias and the activation and takes the h·β dot in the
// same pass (action). Each step repeats the floating-point operations of
// elm.Model.PredictOne on the encoded input in the same order — the
// VecMul partial sums over the input rows with their zero-input skip,
// then h·β with its zero-activation skip — so every Q value is
// bit-identical to PredictOne's.
type qKernel struct {
	obsSize int
	oneHot  bool
	// standard selects the standard output model: the input is the state
	// alone and one evaluation yields all actions' Q values.
	standard bool
	// inSize and outSize are the network dimensions the config implies;
	// every evaluation checks the model against them.
	inSize, outSize int
	// pre holds the state part of x·α (Ñ).
	pre []float64
	// q holds one Q value per action; values returns it, reused between
	// calls.
	q []float64
}

// newQKernel sizes a kernel for networks built from cfg. Scratch is
// O(Ñ + actions), allocated here once.
func newQKernel(cfg Config) qKernel {
	d := cfg.dims()
	return qKernel{
		obsSize:  cfg.ObservationSize,
		oneHot:   cfg.OneHotActions,
		standard: cfg.StandardOutputModel,
		inSize:   d.In,
		outSize:  d.Out,
		pre:      make([]float64, cfg.Hidden),
		q:        make([]float64, cfg.ActionCount),
	}
}

// values returns Q(state, a) for every action a. The slice is owned by
// the kernel and overwritten by the next call.
func (k *qKernel) values(m *elm.Model, state []float64) []float64 {
	k.prefix(m, state)
	if k.standard {
		k.outputs(m)
		return k.q
	}
	for act := range k.q {
		k.q[act] = k.action(m, act)
	}
	return k.q
}

// prefix checks the shapes and computes the state part of x·α into k.pre:
// the partial sums mat.VecMulInto forms over the first len(state) input
// rows, in the same row order and skipping zero inputs as it does.
func (k *qKernel) prefix(m *elm.Model, state []float64) {
	if len(state) != k.obsSize {
		panic(fmt.Sprintf("qnet: state has %d features, model expects %d", len(state), k.obsSize))
	}
	if m.InputSize() != k.inSize || m.HiddenSize() != len(k.pre) || m.OutputSize() != k.outSize {
		panic(fmt.Sprintf("qnet: model is %d/%d/%d, kernel expects %d/%d/%d",
			m.InputSize(), m.HiddenSize(), m.OutputSize(), k.inSize, len(k.pre), k.outSize))
	}
	pre := k.pre
	n := len(pre)
	for j := range pre {
		pre[j] = 0
	}
	ad := m.Alpha.RawData()
	for i, xv := range state {
		if xv == 0 {
			continue
		}
		row := ad[i*n:][:n]
		for j, w := range row {
			pre[j] += xv * w
		}
	}
}

// action finishes one simplified-output-model evaluation from k.pre: it
// adds the action's input row (the scalar index, skipped when 0 as
// VecMulInto skips it, or the one-hot 1), the bias and the activation,
// and accumulates h·β over the nonzero activations.
func (k *qKernel) action(m *elm.Model, action int) float64 {
	pre := k.pre
	n := len(pre)
	row, xv := k.obsSize, float64(action)
	if k.oneHot {
		row, xv = k.obsSize+action, 1
	}
	arow := m.Alpha.RawData()[row*n:][:n]
	bias := m.Bias[:n]
	beta := m.Beta.RawData()[:n]
	f := m.Act.F
	var q float64
	if xv == 0 {
		for j, z := range pre {
			if h := f(z + bias[j]); h != 0 {
				q += h * beta[j]
			}
		}
		return q
	}
	for j, z := range pre {
		z += xv * arow[j]
		if h := f(z + bias[j]); h != 0 {
			q += h * beta[j]
		}
	}
	return q
}

// outputs finishes a standard-output-model evaluation from k.pre (the
// whole x·α): h = G(x·α + b), then q = h·β over the nonzero activations,
// one column of β per action, as mat.VecMul accumulates it.
func (k *qKernel) outputs(m *elm.Model) {
	q := k.q
	na := len(q)
	for c := range q {
		q[c] = 0
	}
	bias := m.Bias[:len(k.pre)]
	bd := m.Beta.RawData()
	f := m.Act.F
	for j, z := range k.pre {
		h := f(z + bias[j])
		if h == 0 {
			continue
		}
		brow := bd[j*na:][:na]
		for c, w := range brow {
			q[c] += h * w
		}
	}
}
