// Package timing models execution time the way the paper's Figures 5 and 6
// report it: per-phase breakdowns (seq_train, predict_seq, init_train,
// predict_init, train_DQN, predict_1, predict_32) for each design.
//
// We cannot run on the paper's 650 MHz Cortex-A9 or its 125 MHz FPGA
// fabric, so the harness counts the *work* each phase performs (floating
// point operations for software designs, datapath cycles for the FPGA
// simulator) and converts work to device seconds through calibrated device
// profiles. Per DESIGN.md §5 this preserves the relative shape of the
// paper's results — which design wins and by roughly what factor — which is
// the reproducible claim; absolute seconds are testbed-specific.
package timing

import (
	"fmt"
	"sort"
	"strings"
)

// Phase labels one segment of the execution-time breakdown, matching the
// paper's Figure 5 legend exactly.
type Phase string

// The seven phases of paper Figure 5.
const (
	// PhasePredictInit is ELM/OS-ELM prediction before initial training
	// completes (the agent acts randomly-informed while filling buffer D).
	PhasePredictInit Phase = "predict_init"
	// PhasePredictSeq is ELM/OS-ELM prediction after initial training.
	PhasePredictSeq Phase = "predict_seq"
	// PhaseInitTrain is the one-shot ELM/OS-ELM initial training (Eq. 7/8).
	PhaseInitTrain Phase = "init_train"
	// PhaseSeqTrain is the OS-ELM rank-1 sequential update (Eq. 5, k=1).
	PhaseSeqTrain Phase = "seq_train"
	// PhaseTrainDQN is one DQN gradient step.
	PhaseTrainDQN Phase = "train_DQN"
	// PhasePredict1 is a DQN forward pass with batch size 1.
	PhasePredict1 Phase = "predict_1"
	// PhasePredict32 is a DQN forward pass with batch size 32.
	PhasePredict32 Phase = "predict_32"
)

// AllPhases lists phases in the paper's legend order.
var AllPhases = []Phase{
	PhaseSeqTrain, PhasePredictSeq, PhaseInitTrain, PhasePredictInit,
	PhaseTrainDQN, PhasePredict1, PhasePredict32,
}

// Counters accumulates calls and work units per phase. Work units are
// floating-point operations for software designs and datapath cycles for
// the FPGA design; the Profile converting them knows which.
//
// Concurrency contract: a Counters is intentionally unsynchronized — it
// sits on every agent's hot path, where a lock would tax the
// single-threaded common case. Concurrent users (the fleet runner's
// per-core members, parallel trials) must give each goroutine its own
// Counters and combine them with Merge only at a barrier, after all
// writers have stopped. Sharing one Counters across concurrently
// running members is a data race (caught by the harness fleet -race
// test).
type Counters struct {
	calls map[Phase]int64
	work  map[Phase]float64
}

// NewCounters returns empty counters.
func NewCounters() *Counters {
	return &Counters{calls: make(map[Phase]int64), work: make(map[Phase]float64)}
}

// Add records one call performing the given work units in phase p.
func (c *Counters) Add(p Phase, work float64) {
	c.calls[p]++
	c.work[p] += work
}

// AddN records n calls performing total work units in phase p.
func (c *Counters) AddN(p Phase, n int64, work float64) {
	c.calls[p] += n
	c.work[p] += work
}

// Calls returns the number of calls recorded for p.
func (c *Counters) Calls(p Phase) int64 { return c.calls[p] }

// Work returns the total work units recorded for p.
func (c *Counters) Work(p Phase) float64 { return c.work[p] }

// Reset zeroes all counters (agent reinitialization does NOT reset them —
// the paper's time-to-complete includes failed attempts; Reset is for
// starting a fresh trial).
func (c *Counters) Reset() {
	c.calls = make(map[Phase]int64)
	c.work = make(map[Phase]float64)
}

// Merge adds other's counts into c — the fleet-barrier aggregation
// point of the per-goroutine Counters pattern (see the type comment).
// Neither side may have live writers during the merge.
func (c *Counters) Merge(other *Counters) {
	for p, n := range other.calls {
		c.calls[p] += n
	}
	for p, w := range other.work {
		c.work[p] += w
	}
}

// Profile converts work units into device seconds.
type Profile struct {
	// Name identifies the device, e.g. "cortex-a9-numpy".
	Name string
	// WorkUnitsPerSec is the sustained throughput: FLOP/s for software
	// profiles, datapath cycles/s for the FPGA fabric.
	WorkUnitsPerSec float64
	// CallOverheadSec is the fixed cost per dispatched operation: one
	// framework tensor op for software profiles, one AXI-invoked module
	// run for the FPGA.
	CallOverheadSec float64
	// PhaseOps is the number of dispatched operations one logical call in
	// a phase issues (a rank-1 OS-ELM update is ~a dozen tensor ops in
	// PyTorch; a batched predict is ~3). Phases absent from the map count
	// as 1 op per call. The FPGA profile leaves this nil — one invocation
	// is one handshake.
	PhaseOps map[Phase]float64
}

// Seconds returns the modelled time for calls invocations doing work units
// in phase p.
func (p Profile) Seconds(phase Phase, calls int64, work float64) float64 {
	ops := 1.0
	if p.PhaseOps != nil {
		if f, ok := p.PhaseOps[phase]; ok {
			ops = f
		}
	}
	return work/p.WorkUnitsPerSec + float64(calls)*ops*p.CallOverheadSec
}

// WorkSeconds converts raw work units (datapath cycles for PL profiles,
// flops for software ones) to device seconds with no per-call overhead —
// the duration of a kernel inside an already-dispatched invocation,
// where the handshake is accounted to the enclosing module. Used by the
// device profiler's per-kernel spans and reports.
func (p Profile) WorkSeconds(work float64) float64 {
	return work / p.WorkUnitsPerSec
}

// Calibrated device profiles. The throughput and overhead constants were
// chosen once so that the modelled per-phase times land in the regime the
// paper reports for a 650 MHz Cortex-A9 running NumPy 1.17 / PyTorch 1.3
// and a 125 MHz programmable-logic fabric; see EXPERIMENTS.md for the
// paper-vs-model comparison.
var (
	// CortexA9NumPy models the DQN software stack (§4.3: NumPy for DQN).
	// A 650 MHz in-order core sustains ~100 MFLOP/s on tiny matrices, and
	// each NumPy dispatch costs tens of microseconds; a DQN train step is
	// a few dozen such dispatches (forward, backward, Adam per layer).
	CortexA9NumPy = Profile{
		Name:            "cortex-a9-numpy",
		WorkUnitsPerSec: 1.3e8,
		CallOverheadSec: 60e-6,
		PhaseOps: map[Phase]float64{
			PhaseTrainDQN:  25,
			PhasePredict1:  3,
			PhasePredict32: 3,
		},
	}
	// CortexA9PyTorch models the ELM/OS-ELM software stack (§4.3: PyTorch
	// for the ELM/OS-ELM approaches). PyTorch dispatch is more expensive
	// than NumPy's; a rank-1 sequential update issues ~a dozen tensor ops
	// (hidden pass, P·h, gain, outer-product downdate, β update) while a
	// batched predict issues ~3.
	CortexA9PyTorch = Profile{
		Name:            "cortex-a9-pytorch",
		WorkUnitsPerSec: 1.1e8,
		CallOverheadSec: 40e-6,
		PhaseOps: map[Phase]float64{
			PhaseSeqTrain:    12,
			PhaseInitTrain:   30,
			PhasePredictSeq:  3,
			PhasePredictInit: 3,
		},
	}
	// FPGA125 models the programmable-logic datapath: one work unit is one
	// datapath cycle at 125 MHz (§4.2), and each predict/seq_train
	// invocation pays an AXI handshake.
	FPGA125 = Profile{
		Name:            "fpga-pl-125mhz",
		WorkUnitsPerSec: 125e6,
		CallOverheadSec: 8e-6,
	}
	// CortexA9Init models the CPU-side init_train of the FPGA design
	// (§4.2: "init_train is executed on the CPU part").
	CortexA9Init = CortexA9PyTorch
)

// Breakdown maps phases to modelled seconds.
type Breakdown map[Phase]float64

// Total returns the sum over phases, added in AllPhases order so the
// result is the same float64 on every call (map iteration order is not).
func (b Breakdown) Total() float64 {
	var s float64
	for _, p := range AllPhases {
		s += b[p]
	}
	return s
}

// Model converts counters to a breakdown using profile for every phase.
func Model(c *Counters, profile Profile) Breakdown {
	out := make(Breakdown)
	for _, p := range AllPhases {
		if c.calls[p] == 0 {
			continue
		}
		out[p] = profile.Seconds(p, c.calls[p], c.work[p])
	}
	return out
}

// ModelMixed converts counters using a per-phase profile map with a
// default. The FPGA design uses this: predict/seq_train on the fabric,
// init_train and pre-init prediction on the CPU.
func ModelMixed(c *Counters, perPhase map[Phase]Profile, def Profile) Breakdown {
	out := make(Breakdown)
	for _, p := range AllPhases {
		if c.calls[p] == 0 {
			continue
		}
		prof, ok := perPhase[p]
		if !ok {
			prof = def
		}
		out[p] = prof.Seconds(p, c.calls[p], c.work[p])
	}
	return out
}

// Format renders a breakdown as aligned text, phases in legend order.
func (b Breakdown) Format() string {
	var sb strings.Builder
	keys := make([]Phase, 0, len(b))
	for _, p := range AllPhases {
		if _, ok := b[p]; ok {
			keys = append(keys, p)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return indexOf(keys[i]) < indexOf(keys[j]) })
	for _, p := range keys {
		fmt.Fprintf(&sb, "  %-13s %12.4fs\n", p, b[p])
	}
	fmt.Fprintf(&sb, "  %-13s %12.4fs\n", "total", b.Total())
	return sb.String()
}

func indexOf(p Phase) int {
	for i, q := range AllPhases {
		if q == p {
			return i
		}
	}
	return len(AllPhases)
}
