package fpga

// Device-level cycle profiler. Prof attributes every cycle the core
// charges along (phase × kernel × unit) and counts per-BRAM-bank
// accesses, in the style of internal/fixed.Acct: a nil *Prof is the
// disabled state — charge and access return after one pointer
// comparison, so the datapath pays nothing measurable when profiling is
// off (pinned by the disabled-path benchmarks).
//
// The load-bearing invariant: the sum of all attributed cycles equals
// Core.Cycles() exactly — Core.charge is the one place cycles are
// counted, and it feeds the counter and the profiler together — and, for
// complete module invocations, the per-kernel
// sums equal the analytic PredictKernelCycles/SeqTrainKernelCycles
// breakdowns. The profiler is therefore a cross-check on the cycle model
// itself, not just a lens over it (prof_test.go enforces this across
// QFormats and hidden sizes).
//
// Prof is a plain value type (fixed-size arrays, no pointers): snapshot
// it with a struct copy, diff snapshots with Delta, compare with ==.
// It is not synchronized — like the Core it instruments, one goroutine.

// ProfPhase is the module (invocation context) a cycle was charged in.
type ProfPhase uint8

const (
	// ProfPredict covers Predict/PredictUsing invocations — including the
	// target-network reads the agent issues while computing a Bellman
	// target inside its seq_train *timing* phase; the profiler attributes
	// by datapath module, not by the agent's phase windows.
	ProfPredict ProfPhase = iota
	// ProfSeqTrain covers SeqTrain invocations.
	ProfSeqTrain
	// ProfLoad is the LoadFloat DMA boundary. It charges no datapath
	// cycles in this model (the bulk load rides the CPU-side timing
	// profile) but records the BRAM writes of the parameter load.
	ProfLoad
	// ProfTheta2Sync is the θ2 ← θ1 target sync: zero datapath cycles,
	// but the β-bank reads of the copy are recorded (NoteTheta2Sync).
	ProfTheta2Sync

	// NumProfPhases is the number of ProfPhase values.
	NumProfPhases = 4
)

// String returns the label used in fpga_cycles{phase=...} metrics.
func (p ProfPhase) String() string {
	switch p {
	case ProfPredict:
		return "predict"
	case ProfSeqTrain:
		return "seq_train"
	case ProfLoad:
		return "load"
	case ProfTheta2Sync:
		return "theta2_sync"
	}
	return "unknown"
}

// ProfKernel is the dataflow stage a cycle was charged in.
type ProfKernel uint8

const (
	// KernHiddenPass is h = ReLU(x·α + b).
	KernHiddenPass ProfKernel = iota
	// KernPH is ph = P·hᵀ.
	KernPH
	// KernGain is the Eq. 5 scalar path: the denominator accumulation
	// 1 + h·ph, the single divide s = 1/denom, and the gain scaling
	// g = s·ph.
	KernGain
	// KernDowndate is the rank-1 covariance downdate P ← P − g·phᵀ.
	KernDowndate
	// KernResidual is the h·β evaluation: the predict module's output
	// pass y = h·β, and in seq_train the same dot product plus the
	// subtract of e = t − h·β.
	KernResidual
	// KernBetaUpdate is β ← β + g·e.
	KernBetaUpdate
	// KernOverhead is the per-invocation FSM/handshake cost
	// (CycleModel.InvokeOverhead), charged to the invoke unit.
	KernOverhead

	// NumProfKernels is the number of ProfKernel values.
	NumProfKernels = 7
)

// String returns the label used in fpga_cycles{kernel=...} metrics.
func (k ProfKernel) String() string {
	switch k {
	case KernHiddenPass:
		return "hidden_pass"
	case KernPH:
		return "p_h"
	case KernGain:
		return "gain"
	case KernDowndate:
		return "downdate"
	case KernResidual:
		return "residual"
	case KernBetaUpdate:
		return "beta_update"
	case KernOverhead:
		return "overhead"
	}
	return "unknown"
}

// ProfUnit is the datapath unit a cycle was spent on — the paper's
// "single add, mult, and div unit" plus the invocation FSM.
type ProfUnit uint8

const (
	// UnitAdd is the adder (subtracts are adds; ReLU is a comparator and
	// charges nothing).
	UnitAdd ProfUnit = iota
	// UnitMul is the multiplier.
	UnitMul
	// UnitDiv is the iterative divider.
	UnitDiv
	// UnitInvoke is the module-invocation FSM (control, not arithmetic).
	UnitInvoke

	// NumProfUnits is the number of ProfUnit values.
	NumProfUnits = 4
)

// String returns the label used in fpga_cycles{unit=...} metrics.
func (u ProfUnit) String() string {
	switch u {
	case UnitAdd:
		return "add"
	case UnitMul:
		return "mul"
	case UnitDiv:
		return "div"
	case UnitInvoke:
		return "invoke"
	}
	return "unknown"
}

// Bank identifies one on-chip array bank; the names match the CoreArrays
// inventory in membank.go (and Table 3's memory map).
type Bank uint8

const (
	BankP Bank = iota
	BankPt
	BankAlpha
	BankBeta
	BankBias
	BankH
	BankPH
	BankX

	// NumBanks is the number of Bank values.
	NumBanks = 8
)

// String returns the label used in fpga_bram_access{bank=...} metrics;
// it matches the ArraySpec.Name of the same bank.
func (b Bank) String() string {
	switch b {
	case BankP:
		return "P"
	case BankPt:
		return "Pt"
	case BankAlpha:
		return "alpha"
	case BankBeta:
		return "beta"
	case BankBias:
		return "bias"
	case BankH:
		return "h"
	case BankPH:
		return "ph"
	case BankX:
		return "x"
	}
	return "unknown"
}

// BankOp is the access direction of a BRAM port.
type BankOp uint8

const (
	BankRead BankOp = iota
	BankWrite

	// NumBankOps is the number of BankOp values.
	NumBankOps = 2
)

// String returns the label used in fpga_bram_access{op=...} metrics.
func (o BankOp) String() string {
	if o == BankRead {
		return "read"
	}
	return "write"
}

// profCells is the flat size of the (phase × kernel × unit) attribution
// grid.
const profCells = NumProfPhases * NumProfKernels * NumProfUnits

// profIndex flattens (phase, kernel, unit) into the grid.
func profIndex(p ProfPhase, k ProfKernel, u ProfUnit) int {
	return (int(p)*NumProfKernels+int(k))*NumProfUnits + int(u)
}

// Prof is the attribution state. The zero value is an empty profile;
// a nil *Prof is the disabled profiler.
type Prof struct {
	// cycles[profIndex(p,k,u)] is datapath cycles charged to that cell.
	cycles [profCells]int64
	// ops[profIndex(p,k,u)] counts operations issued to that cell — an op
	// can cost zero cycles (PipelinedCycleModel's fused Mul), which is
	// exactly what the ops/cycle roofline surfaces.
	ops [profCells]int64
	// bram[bank*NumBankOps+op] counts per-bank word accesses.
	bram [NumBanks * NumBankOps]int64
}

// charge attributes cyc cycles and ops operations to one (phase, kernel,
// unit) cell. Nil-safe: the disabled profiler costs one pointer
// comparison. Kernels charge their deterministic loop totals once per
// invocation (through Core.charge) rather than per elementary op — the
// loop trip counts are fixed by the core's dimensions, so the
// attribution is exact.
func (p *Prof) charge(ph ProfPhase, k ProfKernel, u ProfUnit, cyc, ops int64) {
	if p == nil {
		return
	}
	idx := profIndex(ph, k, u)
	p.cycles[idx] += cyc
	p.ops[idx] += ops
}

// access records n word accesses on one bank port. Nil-safe; callers
// bulk-charge once per kernel loop, not per word.
func (p *Prof) access(bank Bank, op BankOp, n int64) {
	if p == nil {
		return
	}
	p.bram[int(bank)*NumBankOps+int(op)] += n
}

// Cycles returns the cycles attributed to one (phase, kernel, unit) cell.
func (p *Prof) Cycles(ph ProfPhase, k ProfKernel, u ProfUnit) int64 {
	return p.cycles[profIndex(ph, k, u)]
}

// Ops returns the operations attributed to one cell.
func (p *Prof) Ops(ph ProfPhase, k ProfKernel, u ProfUnit) int64 {
	return p.ops[profIndex(ph, k, u)]
}

// BRAM returns the access count of one bank port.
func (p *Prof) BRAM(bank Bank, op BankOp) int64 {
	return p.bram[int(bank)*NumBankOps+int(op)]
}

// TotalCycles sums every attributed cycle; it must equal the delta of
// Core.Cycles() over the profiled window.
func (p *Prof) TotalCycles() int64 {
	var t int64
	for _, c := range p.cycles {
		t += c
	}
	return t
}

// PhaseCycles sums one phase's attributed cycles.
func (p *Prof) PhaseCycles(ph ProfPhase) int64 {
	var t int64
	base := profIndex(ph, 0, 0)
	for i := 0; i < NumProfKernels*NumProfUnits; i++ {
		t += p.cycles[base+i]
	}
	return t
}

// KernelCycles sums one (phase, kernel) row across units.
func (p *Prof) KernelCycles(ph ProfPhase, k ProfKernel) int64 {
	var t int64
	base := profIndex(ph, k, 0)
	for u := 0; u < NumProfUnits; u++ {
		t += p.cycles[base+u]
	}
	return t
}

// UnitCycles sums one unit's attributed cycles across phases and kernels.
func (p *Prof) UnitCycles(u ProfUnit) int64 {
	var t int64
	for i := int(u); i < profCells; i += NumProfUnits {
		t += p.cycles[i]
	}
	return t
}

// UnitOps sums one unit's operation count across phases and kernels.
func (p *Prof) UnitOps(u ProfUnit) int64 {
	var t int64
	for i := int(u); i < profCells; i += NumProfUnits {
		t += p.ops[i]
	}
	return t
}

// ArithOps is the total add+mul+div operations issued (invocations are
// control, not arithmetic).
func (p *Prof) ArithOps() int64 {
	return p.UnitOps(UnitAdd) + p.UnitOps(UnitMul) + p.UnitOps(UnitDiv)
}

// UnitBusyFraction is the fraction of all attributed cycles spent on one
// unit — the occupancy of that unit in the sequential schedule. Zero for
// an empty profile.
func (p *Prof) UnitBusyFraction(u ProfUnit) float64 {
	total := p.TotalCycles()
	if total == 0 {
		return 0
	}
	return float64(p.UnitCycles(u)) / float64(total)
}

// OpsPerCycle is the achieved arithmetic throughput: ArithOps divided by
// total attributed cycles — the roofline position against the
// single-unit peak of 1 op/cycle. The sequential single-issue datapath
// stays below 1 (overhead and divider latency); PipelinedCycleModel's
// fused MAC can exceed 1 because a Mul retires in the Add's cycle.
func (p *Prof) OpsPerCycle() float64 {
	total := p.TotalCycles()
	if total == 0 {
		return 0
	}
	return float64(p.ArithOps()) / float64(total)
}

// Delta returns p − prev cell-wise — the increment between two
// snapshots, used by the agent's delta-flushed metrics.
func (p Prof) Delta(prev Prof) Prof {
	var d Prof
	for i := range p.cycles {
		d.cycles[i] = p.cycles[i] - prev.cycles[i]
		d.ops[i] = p.ops[i] - prev.ops[i]
	}
	for i := range p.bram {
		d.bram[i] = p.bram[i] - prev.bram[i]
	}
	return d
}

// Reset zeroes the profile in place.
func (p *Prof) Reset() {
	if p == nil {
		return
	}
	*p = Prof{}
}
