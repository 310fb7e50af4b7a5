package fpga

import "oselmrl/internal/timing"

// Kernel identifies one schedulable module invocation at the core's
// kernel boundary — the unit of work a dispatcher hands to a core. The
// fleet simulator (internal/fleet) schedules Kernels and charges their
// cycle cost without re-executing the fixed-point arithmetic; the cost
// comes from AnalyticKernelCosts, which sums the same schedule the
// executed datapath charges from, so simulated fleet time and executed
// single-core time agree cycle-exactly.
//
// Kernel is the module-level boundary (one AXI invocation); ProfKernel
// is the finer intra-module attribution (hidden_pass, gain, ...) inside
// one Kernel.
type Kernel uint8

// The two PL-resident module invocations of the paper's core (§4.2).
const (
	// KernelPredict is one predict-module invocation: y = h·β.
	KernelPredict Kernel = iota
	// KernelSeqTrain is one seq_train-module invocation: the rank-1
	// OS-ELM update (Eq. 5, k = 1).
	KernelSeqTrain
	// NumKernels sizes KernelCosts.
	NumKernels = 2
)

// String returns the paper's module name.
func (k Kernel) String() string {
	switch k {
	case KernelPredict:
		return "predict"
	case KernelSeqTrain:
		return "seq_train"
	}
	return "unknown"
}

// Phase maps a kernel to the timing phase its cycles are reported under
// in the Figure 5 breakdowns (both PL phases; init_train stays on the
// CPU and never crosses the kernel boundary).
func (k Kernel) Phase() timing.Phase {
	if k == KernelSeqTrain {
		return timing.PhaseSeqTrain
	}
	return timing.PhasePredictSeq
}

// KernelCosts is the kernel → cycle-cost table of one core: the number
// of datapath cycles one invocation of each kernel consumes, indexed by
// Kernel.
type KernelCosts [NumKernels]int64

// KernelCosts returns the core's full kernel → cycle-cost table.
func (c *Core) KernelCosts() KernelCosts {
	return AnalyticKernelCosts(c.inputSize, c.hiddenSize, c.outputSize, c.model)
}

// AnalyticKernelCosts returns the kernel cost table for a core of the
// given dimensions without allocating its BRAM state: the sum of the
// module's schedule priced under model. It equals what executing the
// kernel on the datapath counts, since the core charges from the same
// schedule. There is no QFormat argument: only the binary point moves
// between formats, not the operation schedule.
func AnalyticKernelCosts(inputSize, hiddenSize, outputSize int, model CycleModel) KernelCosts {
	var kc KernelCosts
	for k := range kc {
		for _, ops := range schedule(Kernel(k), int64(inputSize), int64(hiddenSize), int64(outputSize)) {
			_, cyc := model.price(ops)
			kc[k] += cyc
		}
	}
	return kc
}

// unitOps counts operations (or their cycles) per datapath unit, indexed
// by ProfUnit.
type unitOps [NumProfUnits]int64

// macs is n multiply-accumulates: n adds and n muls through the shared
// units.
func macs(n int64) unitOps { return unitOps{UnitAdd: n, UnitMul: n} }

// kernGainScale is the schedule's extra row: the gain kernel's divide
// and scaling (s = 1/denom, g = s·ph), charged after the denominator
// guard and attributed to KernGain. Row KernGain holds the denominator
// 1 + h·ph, charged before the guard, so a rejected update charges
// exactly the work that ran.
const kernGainScale ProfKernel = NumProfKernels

// scheduleRows sizes the schedule: one row per ProfKernel plus
// kernGainScale.
const scheduleRows = NumProfKernels + 1

// schedule is the device cycle model's operation schedule, and the only
// place it is written: the per-unit operation counts of every kernel
// step of one invocation of module k on a core with n inputs, h hidden
// units and m outputs, indexed by ProfKernel (plus kernGainScale).
// Kernels a module does not run are zero. The core prices it once
// (NewCoreQ) and charges one row per kernel; AnalyticKernelCosts sums it.
func schedule(k Kernel, n, h, m int64) [scheduleRows]unitOps {
	var s [scheduleRows]unitOps
	s[KernOverhead][UnitInvoke] = 1
	s[KernHiddenPass] = macs(n * h)
	if k == KernelPredict {
		s[KernResidual] = macs(m * h) // the y = h·β output pass
		return s
	}
	s[KernPH] = macs(h * h)
	s[KernGain] = macs(h)
	s[kernGainScale] = unitOps{UnitMul: h, UnitDiv: 1}
	s[KernDowndate] = macs(h * h)
	// h·β plus the e = t − h·β subtract: one extra add per output.
	s[KernResidual] = unitOps{UnitAdd: m*h + m, UnitMul: m * h}
	s[KernBetaUpdate] = macs(m * h)
	return s
}
