// Package fpga simulates the paper's PYNQ-Z1 implementation (§4.2): the
// OS-ELM Q-Network's predict and seq_train modules realized in 32-bit
// fixed point on the programmable logic at 125 MHz, with initial training
// on the Cortex-A9 CPU. The paper fixes the format to Q20; the simulator
// parameterizes it (NewCoreQ/NewAgentQ take any Qm.f format) with Q20 as
// the default. The simulator is bit-accurate — every add, mul and div
// goes through internal/fixed's saturating Qm.f arithmetic, run as
// vector kernels over BRAM rows — and cycle-counted: the paper's core has
// "only a single add, mult, and div unit", so datapath cycles are the
// sequential operation count (divides take an iterative divider's
// latency). Each kernel's operation count is fixed by the core's
// dimensions, so a kernel charges it once per invocation instead of
// counting op by op. Cycle counts and BRAM/DSP/FF/LUT
// resources are format-invariant: only the binary point moves, the 32-bit
// word and the operation schedule do not.
//
// The package also models the core's FPGA resource utilization
// (BRAM/DSP/FF/LUT of an xc7z020, paper Table 3), including the result
// that a 256-unit design does not fit the device.
package fpga

import (
	"fmt"

	"oselmrl/internal/fixed"
	"oselmrl/internal/mat"
)

// CycleModel holds per-operation latencies of the single-unit datapath.
type CycleModel struct {
	// Add, Mul are 1-cycle pipelined units; Div is an iterative divider.
	Add, Mul, Div int64
	// InvokeOverhead is the control/handshake cost per module invocation.
	InvokeOverhead int64
}

// DefaultCycleModel matches a simple non-pipelined datapath: each add and
// multiply issues on its own cycle through the single shared units, a
// 32-cycle radix-2 divider, and a small FSM overhead per invocation.
func DefaultCycleModel() CycleModel {
	return CycleModel{Add: 1, Mul: 1, Div: 32, InvokeOverhead: 16}
}

// PipelinedCycleModel models a fused multiply-accumulate pipeline at
// initiation interval 1: one MAC issues per cycle, so the multiply's
// cycle is absorbed into the accumulating add (Mul = 0, Add = 1). The
// divider and FSM costs are unchanged. This is the II=1 design a Vivado
// HLS `pipeline` pragma produces and roughly halves seq_train cycles
// relative to DefaultCycleModel — an ablation on the paper's "single add,
// mult, and div unit" statement.
func PipelinedCycleModel() CycleModel {
	return CycleModel{Add: 1, Mul: 0, Div: 32, InvokeOverhead: 16}
}

// Core is the fixed-point OS-ELM datapath: the on-chip state (α, b, β, P
// in BRAM) plus cycle accounting.
type Core struct {
	// Alpha is the n×Ñ input weight BRAM.
	Alpha *fixed.Matrix
	// Bias is the Ñ-entry bias BRAM.
	Bias []fixed.Fixed
	// Beta is the Ñ×m output weight BRAM.
	Beta *fixed.Matrix
	// P is the Ñ×Ñ inverse-covariance BRAM.
	P *fixed.Matrix

	inputSize, hiddenSize, outputSize int

	model  CycleModel
	cycles int64

	// q is the Qm.f arithmetic context (normalized; Q20 by default); one
	// is 1.0 in that format, cached because the seq_train inner loop and
	// the denominator guard compare against it every update.
	q   fixed.QFormat
	one fixed.Fixed

	// denomFloor is the seq_train denominator guard threshold (one half,
	// i.e. 0.5 in the core's format). The Eq. 5 scalar 1 + h·P·hᵀ stays
	// ≥ 1 while P is positive semi-definite; quantization jitter can
	// nibble a few LSBs below 1, but a drop past 0.5 means P has been
	// saturated or poisoned and the reciprocal would amplify garbage.
	denomFloor fixed.Fixed
	// denomGuardTrips counts seq_train updates rejected by the guard.
	denomGuardTrips int64

	// scratch vectors model the working BRAMs (h and P·h).
	h  []fixed.Fixed
	ph []fixed.Fixed
	// g is the seq_train gain s·ph and e the residual t − h·β: register
	// or LUTRAM scratch, not modelled BRAM banks. out is the predict
	// module's output register, returned by Predict and reused by the
	// next call.
	g, e, out []fixed.Fixed

	// Numeric-health accounting. acct is the active accumulator during a
	// module invocation (acctPredict inside Predict, acctSeq inside
	// SeqTrain); acctConv accounts the LoadFloat quantization boundary.
	// All nil when accounting is off — the datapath then pays one nil
	// check per kernel call and nothing else (pinned by the disabled-path
	// tests).
	acct        *fixed.Acct
	acctPredict *fixed.Acct
	acctSeq     *fixed.Acct
	acctConv    *fixed.Acct

	// Device-level cycle profiler (prof.go); nil when profiling is off.
	// Kernels charge their fixed operation counts through charge, which
	// feeds the cycle counter and the profiler together (Prof.charge is
	// nil-safe). profPhase is the module being executed, set by
	// enterModule and read by charge.
	prof      *Prof
	profPhase ProfPhase
}

// NewCore allocates a core for the given dimensions in the default Q20
// format.
func NewCore(inputSize, hiddenSize, outputSize int, model CycleModel) *Core {
	return NewCoreQ(inputSize, hiddenSize, outputSize, model, fixed.QFormat{})
}

// NewCoreQ allocates a core whose datapath runs in the given Qm.f format.
// The zero format is the Q20 default, bit-identical to NewCore.
func NewCoreQ(inputSize, hiddenSize, outputSize int, model CycleModel, q fixed.QFormat) *Core {
	if inputSize <= 0 || hiddenSize <= 0 || outputSize <= 0 {
		panic(fmt.Sprintf("fpga: invalid core dimensions %d/%d/%d", inputSize, hiddenSize, outputSize))
	}
	q = q.Normalized()
	one := q.One()
	return &Core{
		Alpha:      fixed.NewMatrixQ(inputSize, hiddenSize, q),
		Bias:       make([]fixed.Fixed, hiddenSize),
		Beta:       fixed.NewMatrixQ(hiddenSize, outputSize, q),
		P:          fixed.NewMatrixQ(hiddenSize, hiddenSize, q),
		inputSize:  inputSize,
		hiddenSize: hiddenSize,
		outputSize: outputSize,
		q:          q,
		one:        one,
		denomFloor: one / 2,
		model:      model,
		h:          make([]fixed.Fixed, hiddenSize),
		ph:         make([]fixed.Fixed, hiddenSize),
		g:          make([]fixed.Fixed, hiddenSize),
		e:          make([]fixed.Fixed, outputSize),
		out:        make([]fixed.Fixed, outputSize),
	}
}

// Format returns the core's Qm.f arithmetic format.
func (c *Core) Format() fixed.QFormat { return c.q }

// DenomGuardTrips returns how many seq_train updates the denominator
// guard rejected (see SeqTrain).
func (c *Core) DenomGuardTrips() int64 { return c.denomGuardTrips }

// LoadFloat quantizes float64 parameters into the core's BRAMs — the DMA
// transfer after the CPU-side initial training. With accounting enabled
// the conversion accumulator records NaN coercions, rail saturations and
// quantization error of every loaded parameter. The load charges no
// datapath cycles (the bulk transfer rides the CPU-side timing profile),
// but with profiling enabled its BRAM writes are recorded under the load
// phase — including the transposed P copy (the Pt bank) the real design
// fills alongside P.
func (c *Core) LoadFloat(alpha *mat.Dense, bias []float64, beta, p *mat.Dense) {
	c.Alpha = fixed.FromDenseQ(alpha, c.q, c.acctConv)
	for i, b := range bias {
		c.Bias[i] = c.acctConv.FromFloatQ(c.q, b)
	}
	c.Beta = fixed.FromDenseQ(beta, c.q, c.acctConv)
	c.P = fixed.FromDenseQ(p, c.q, c.acctConv)
	n, h, m := int64(c.inputSize), int64(c.hiddenSize), int64(c.outputSize)
	c.prof.access(BankAlpha, BankWrite, n*h)
	c.prof.access(BankBias, BankWrite, h)
	c.prof.access(BankBeta, BankWrite, h*m)
	c.prof.access(BankP, BankWrite, h*h)
	c.prof.access(BankPt, BankWrite, h*h)
}

// EnableAccounting attaches per-module numeric-health accumulators:
// predict-module ops, seq_train-module ops and LoadFloat conversions are
// accounted separately so saturation and quantization-error metrics stay
// attributable to their phase. Accounting changes no datapath result and
// no cycle count (asserted by the golden-vector test); it only observes.
func (c *Core) EnableAccounting() {
	c.acctPredict = &fixed.Acct{}
	c.acctSeq = &fixed.Acct{}
	c.acctConv = &fixed.Acct{}
}

// AccountingEnabled reports whether EnableAccounting has been called.
func (c *Core) AccountingEnabled() bool { return c.acctPredict != nil }

// PredictAcct returns the predict-module accumulator (nil when accounting
// is off).
func (c *Core) PredictAcct() *fixed.Acct { return c.acctPredict }

// SeqTrainAcct returns the seq_train-module accumulator (nil when
// accounting is off).
func (c *Core) SeqTrainAcct() *fixed.Acct { return c.acctSeq }

// ConvAcct returns the LoadFloat conversion accumulator (nil when
// accounting is off).
func (c *Core) ConvAcct() *fixed.Acct { return c.acctConv }

// EnableProfiling attaches the device-level cycle profiler: every cycle
// charged from here on is attributed along (phase × kernel × unit) and
// BRAM bank accesses are counted. Like accounting, profiling changes no
// datapath result and no cycle count — it only observes (asserted by
// TestProfilingDoesNotPerturbDatapath).
func (c *Core) EnableProfiling() {
	if c.prof == nil {
		c.prof = &Prof{}
	}
}

// ProfilingEnabled reports whether EnableProfiling has been called.
func (c *Core) ProfilingEnabled() bool { return c.prof != nil }

// Prof returns the attribution profile (nil when profiling is off). The
// returned profile is live — snapshot it with a struct copy.
func (c *Core) Prof() *Prof { return c.prof }

// NoteTheta2Sync records the BRAM traffic of the θ2 ← θ1 target sync
// (the agent cloning the β bank): one read per β word under the
// theta2_sync phase. The sync costs no datapath cycles in this model —
// the copy rides the double-buffered β bank's second port.
func (c *Core) NoteTheta2Sync() {
	c.prof.access(BankBeta, BankRead, int64(c.hiddenSize)*int64(c.outputSize))
}

// Cycles returns the datapath cycles consumed so far.
func (c *Core) Cycles() int64 { return c.cycles }

// ResetCycles zeroes the cycle counter and, when profiling is enabled,
// the attribution profile — the two must stay in lockstep for the
// attribution invariant (ΣProf == Cycles) to hold.
func (c *Core) ResetCycles() {
	c.cycles = 0
	c.prof.Reset()
}

// InputSize returns n.
func (c *Core) InputSize() int { return c.inputSize }

// HiddenSize returns Ñ.
func (c *Core) HiddenSize() int { return c.hiddenSize }

// OutputSize returns m.
func (c *Core) OutputSize() int { return c.outputSize }

// cost returns the cycles one operation on unit u takes (an invocation
// for UnitInvoke).
func (m CycleModel) cost(u ProfUnit) int64 {
	switch u {
	case UnitAdd:
		return m.Add
	case UnitMul:
		return m.Mul
	case UnitDiv:
		return m.Div
	}
	return m.InvokeOverhead
}

// charge books ops operations on unit u to kernel k of the current
// module. It is the only place cycles are counted: the counter and the
// profiler cell get the same cycles, so ΣProf == Cycles() holds by
// construction. Every kernel's operation count is fixed by the core's
// dimensions, so one charge per kernel invocation is exact.
func (c *Core) charge(k ProfKernel, u ProfUnit, ops int64) {
	cyc := ops * c.model.cost(u)
	c.cycles += cyc
	c.prof.charge(c.profPhase, k, u, cyc, ops)
}

// chargeMACs charges n multiply-accumulates (n adds + n muls through the
// shared units) to kernel k.
func (c *Core) chargeMACs(k ProfKernel, n int64) {
	c.charge(k, UnitAdd, n)
	c.charge(k, UnitMul, n)
}

// enterModule marks a module invocation: sets the profiler phase and
// charges the FSM invocation overhead.
func (c *Core) enterModule(ph ProfPhase) {
	c.profPhase = ph
	c.charge(KernOverhead, UnitInvoke, 1)
}

// hidden computes h = ReLU(x·α + b) into c.h, one row of α per input:
// every h[j] still accumulates its products in input order. The caller
// has set the profiler phase (enterModule) — the hidden pass itself
// charges the hidden_pass kernel and the x/α/bias/h bank traffic: the
// input DMA'd into the x bank once, then x and α streamed once per MAC.
func (c *Core) hidden(x []fixed.Fixed) {
	if len(x) != c.inputSize {
		panic(fmt.Sprintf("fpga: input length %d, core expects %d", len(x), c.inputSize))
	}
	copy(c.h, c.Bias)
	for i, xi := range x {
		c.acct.AddScaledQ(c.q, c.h, xi, c.Alpha.Row(i))
	}
	for j, v := range c.h {
		c.h[j] = fixed.ReLU(v) // comparator, no arithmetic-unit cycle
	}
	n, h := int64(c.inputSize), int64(c.hiddenSize)
	c.chargeMACs(KernHiddenPass, n*h)
	c.prof.access(BankX, BankWrite, n)
	c.prof.access(BankX, BankRead, n*h)
	c.prof.access(BankAlpha, BankRead, n*h)
	c.prof.access(BankBias, BankRead, h)
	c.prof.access(BankH, BankWrite, h)
}

// hBeta computes dst = h·β, one row of β per hidden unit: every dst[o]
// accumulates its products in hidden-unit order. The caller charges it.
func (c *Core) hBeta(beta *fixed.Matrix, dst []fixed.Fixed) {
	clear(dst)
	for j, hj := range c.h {
		c.acct.AddScaledQ(c.q, dst, hj, beta.Row(j))
	}
}

// Predict runs the predict module: y = h·β for one input vector. The
// output pass is attributed to the residual kernel — it is the same h·β
// dot product the seq_train residual evaluates.
//
// The returned slice is the core's output register: it is valid until
// the next Predict, PredictUsing or PredictSilent call on this core, which
// overwrites it. Callers that keep a result must copy it.
func (c *Core) Predict(x []fixed.Fixed) []fixed.Fixed {
	return c.predict(c.Beta, x)
}

func (c *Core) predict(beta *fixed.Matrix, x []fixed.Fixed) []fixed.Fixed {
	c.acct = c.acctPredict
	c.enterModule(ProfPredict)
	c.hidden(x)
	c.hBeta(beta, c.out)
	hn, m := int64(c.hiddenSize), int64(c.outputSize)
	c.chargeMACs(KernResidual, m*hn)
	c.prof.access(BankH, BankRead, m*hn)
	c.prof.access(BankBeta, BankRead, m*hn)
	return c.out
}

// PredictFloat is Predict with float64 conversion at the boundary (the
// AXI interface quantizes observations on the way in).
func (c *Core) PredictFloat(x []float64) []float64 {
	in := make([]fixed.Fixed, len(x))
	for i, v := range x {
		in[i] = c.q.FromFloat(v)
	}
	out := c.Predict(in)
	res := make([]float64, len(out))
	for i, v := range out {
		res[i] = c.q.Float(v)
	}
	return res
}

// PredictUsing runs the predict datapath with an alternative output-weight
// BRAM — the target network θ2's β, which shares α and b with θ1 (α is
// frozen; only β is trained). Cycle cost is identical to Predict, and
// it returns the same reused output slice.
func (c *Core) PredictUsing(beta *fixed.Matrix, x []fixed.Fixed) []fixed.Fixed {
	return c.predict(beta, x)
}

// PredictSilent evaluates the predict datapath WITHOUT modelling it: the
// cycle counter is saved and restored around the call, the accounting
// accumulator is snapshotted and rolled back, and the profiler is
// detached for the duration (cheaper than copying its attribution grid),
// so the call is invisible to the timing model, the numeric-health
// metrics AND the cycle-attribution profile — keeping the ΣProf ==
// Cycles invariant intact. It exists for observability probes (e.g.
// measuring the post-update TD error) that the real hardware would not
// execute — an instrumentation-only read must not perturb the modelled
// device (asserted by TestPredictSilent / TestPredictSilentProfile). It
// returns the same reused output slice as Predict.
func (c *Core) PredictSilent(x []fixed.Fixed) []fixed.Fixed {
	savedCycles := c.cycles
	savedProf := c.prof
	c.prof = nil
	var savedAcct fixed.Acct
	if c.acctPredict != nil {
		savedAcct = *c.acctPredict
	}
	out := c.Predict(x)
	c.cycles = savedCycles
	c.prof = savedProf
	if c.acctPredict != nil {
		*c.acctPredict = savedAcct
	}
	return out
}

// SeqTrain runs the seq_train module: one rank-1 OS-ELM update (Eq. 5 with
// k = 1, the scalar-reciprocal form) entirely in Q20 fixed point:
//
//	h   = ReLU(x·α + b)
//	ph  = P·hᵀ
//	s   = 1 / (1 + h·ph)     ← the single divide that replaced SVD/QRD
//	P  -= (s·ph)·phᵀ
//	e   = t − h·β
//	β  += (s·ph)·e
//
// Denominator guard: with P positive semi-definite the scalar 1 + h·P·hᵀ
// is ≥ 1, but a saturated/poisoned P can drive it toward 0, where the
// reciprocal silently saturates to the rail and the rank-1 downdate
// shreds P and β. If the denominator falls below 0.5 (quantization jitter
// alone cannot take it that low) the update is rejected: state is left
// untouched, DenomGuardTrips increments, and the agent surfaces the trip
// as a numeric_alert-style event. A rejected update stops counting cycles
// at the point of rejection — the hardware FSM would bail the same way.
func (c *Core) SeqTrain(x []fixed.Fixed, t []fixed.Fixed) {
	if len(t) != c.outputSize {
		panic(fmt.Sprintf("fpga: target length %d, core expects %d", len(t), c.outputSize))
	}
	c.acct = c.acctSeq
	c.enterModule(ProfSeqTrain)
	c.hidden(x)
	n := int64(c.hiddenSize)
	nn := n * n

	// ph = P·hᵀ
	for i := range c.ph {
		c.ph[i] = c.acct.DotQ(c.q, 0, c.P.Row(i), c.h)
	}
	c.chargeMACs(KernPH, nn)
	c.prof.access(BankP, BankRead, nn)
	c.prof.access(BankH, BankRead, nn)
	c.prof.access(BankPH, BankWrite, n)

	// denom = 1 + h·ph ; s = 1/denom (the gain kernel's scalar path).
	// The denominator MACs are charged before the guard check so a
	// rejected update's attribution still covers exactly the work that ran.
	denom := c.acct.DotQ(c.q, c.one, c.h, c.ph)
	c.chargeMACs(KernGain, n)
	c.prof.access(BankH, BankRead, n)
	c.prof.access(BankPH, BankRead, n)
	if denom < c.denomFloor {
		// Guard bail: the FSM stops here, so only the work that actually
		// ran is charged — the attribution invariant holds for rejected
		// updates too (the analytic SeqTrainKernelCycles describes the
		// full, accepted update).
		c.denomGuardTrips++
		return
	}
	s := c.acct.DivQ(c.q, c.one, denom)
	c.charge(KernGain, UnitDiv, 1)

	// g = s·ph (the Kalman-style gain, reused for both P and β updates)
	for i, v := range c.ph {
		c.g[i] = c.acct.MulQ(c.q, s, v)
	}
	c.charge(KernGain, UnitMul, n)
	c.prof.access(BankPH, BankRead, n)

	// P ← P − g·phᵀ. The transposed copy (Pt bank) is written alongside
	// P to keep the ping-pong pair coherent for the next iteration's
	// column sweep.
	for i, gi := range c.g {
		c.acct.SubScaledQ(c.q, c.P.Row(i), gi, c.ph)
	}
	c.chargeMACs(KernDowndate, nn)
	c.prof.access(BankP, BankRead, nn)
	c.prof.access(BankPH, BankRead, nn)
	c.prof.access(BankP, BankWrite, nn)
	c.prof.access(BankPt, BankWrite, nn)

	// e = t − h·β ; β ← β + g·e. Column o of β is read only by e[o] and
	// written only by its own update, so computing every e[o] before the
	// row-wise update gives the same words as updating column by column.
	c.hBeta(c.Beta, c.e)
	for o, v := range c.e {
		c.e[o] = c.acct.Sub(t[o], v)
	}
	for j, gj := range c.g {
		c.acct.AddScaledQ(c.q, c.Beta.Row(j), gj, c.e)
	}
	m := int64(c.outputSize)
	mn := m * n
	c.chargeMACs(KernResidual, mn)
	// The residual's e = t − pred subtract: one extra add-unit op per output.
	c.charge(KernResidual, UnitAdd, m)
	c.chargeMACs(KernBetaUpdate, mn)
	c.prof.access(BankH, BankRead, mn)
	c.prof.access(BankBeta, BankRead, 2*mn) // residual read + update read-modify-write
	c.prof.access(BankBeta, BankWrite, mn)
}

// SeqTrainFloat is SeqTrain with float64 conversion at the boundary.
func (c *Core) SeqTrainFloat(x []float64, t []float64) {
	in := make([]fixed.Fixed, len(x))
	for i, v := range x {
		in[i] = c.q.FromFloat(v)
	}
	tt := make([]fixed.Fixed, len(t))
	for i, v := range t {
		tt[i] = c.q.FromFloat(v)
	}
	c.SeqTrain(in, tt)
}

// PredictCycles returns the analytic cycle count of one predict call,
// which must match what the simulator actually counts (asserted in tests).
func (c *Core) PredictCycles() int64 {
	n, h, m := int64(c.inputSize), int64(c.hiddenSize), int64(c.outputSize)
	hiddenOps := h * n * (c.model.Add + c.model.Mul)
	outOps := m * h * (c.model.Add + c.model.Mul)
	return c.model.InvokeOverhead + hiddenOps + outOps
}

// SeqTrainCycles returns the analytic cycle count of one seq_train call.
func (c *Core) SeqTrainCycles() int64 {
	n, h, m := int64(c.inputSize), int64(c.hiddenSize), int64(c.outputSize)
	am := c.model.Add + c.model.Mul
	hiddenOps := h * n * am
	phOps := h * h * am
	denomOps := h * am
	divOps := c.model.Div
	gainOps := h * c.model.Mul
	pOps := h * h * am
	betaOps := m * (h*am + c.model.Add + h*am)
	return c.model.InvokeOverhead + hiddenOps + phOps + denomOps + divOps + gainOps + pOps + betaOps
}

// PredictKernelCycles returns the analytic per-kernel breakdown of one
// predict call, indexed by ProfKernel. The entries sum to
// PredictCycles() and match what the profiler measures (prof_test.go
// asserts both, for every QFormat and hidden size).
func (c *Core) PredictKernelCycles() [NumProfKernels]int64 {
	var out [NumProfKernels]int64
	n, h, m := int64(c.inputSize), int64(c.hiddenSize), int64(c.outputSize)
	am := c.model.Add + c.model.Mul
	out[KernOverhead] = c.model.InvokeOverhead
	out[KernHiddenPass] = h * n * am
	out[KernResidual] = m * h * am // the y = h·β output pass
	return out
}

// SeqTrainKernelCycles returns the analytic per-kernel breakdown of one
// complete (not guard-rejected) seq_train call, indexed by ProfKernel.
// The entries sum to SeqTrainCycles().
func (c *Core) SeqTrainKernelCycles() [NumProfKernels]int64 {
	var out [NumProfKernels]int64
	n, h, m := int64(c.inputSize), int64(c.hiddenSize), int64(c.outputSize)
	am := c.model.Add + c.model.Mul
	out[KernOverhead] = c.model.InvokeOverhead
	out[KernHiddenPass] = h * n * am
	out[KernPH] = h * h * am
	out[KernGain] = h*am + c.model.Div + h*c.model.Mul // denom + divide + g = s·ph
	out[KernDowndate] = h * h * am
	out[KernResidual] = m * (h*am + c.model.Add) // h·β dot + the e = t − pred subtract
	out[KernBetaUpdate] = m * h * am
	return out
}

// BRAMWords returns the number of 32-bit words of on-chip state the core
// holds — the input to the resource model.
func (c *Core) BRAMWords() int {
	return c.Alpha.Words() + len(c.Bias) + c.Beta.Words() + c.P.Words() +
		len(c.h) + len(c.ph) + c.inputSize
}
