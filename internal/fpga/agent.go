package fpga

import (
	"fmt"
	"strings"

	"oselmrl/internal/activation"
	"oselmrl/internal/fixed"
	"oselmrl/internal/obs"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

// Agent is the paper's design (7): the OS-ELM-L2-Lipschitz algorithm with
// its prediction and sequential training executed by the fixed-point
// programmable-logic core, and initial training on the CPU (Figure 3).
//
// Algorithm 1 is internal/qnet.Agent's loop, shared with the float
// designs, run on a datapath that keeps θ1 and θ2 on the cycle-counted
// fixed-point core (Q20 by default; NewAgentQ selects any Qm.f format)
// once init_train has loaded it, and in float64 on the CPU before. PL
// phases are charged in datapath cycles (timing.FPGA125), CPU phases in
// flops (timing.CortexA9Init). Agent adds construction, the AXI bus and
// the accounting and device-profile flushes.
type Agent struct {
	loop *qnet.Agent
	dp   *datapath
}

// datapath is the qnet.Datapath of the device design.
type datapath struct {
	// cpu is the float side: it draws the random α/b (with spectral
	// normalization), evaluates Q before the load and runs init_train.
	cpu *qnet.Float
	// core is the PL datapath holding the quantized θ1.
	core *Core
	// beta2 is θ2's β (α and b are frozen, so θ2 shares them with θ1),
	// copied from the core's β at load and at every θ2 sync.
	beta2  *fixed.Matrix
	bus    *Bus
	cycles CycleModel
	q      fixed.QFormat
	// in is the encoded core input, target the seq_train target word and
	// qs the Q values Values returns.
	in     []fixed.Fixed
	target [1]fixed.Fixed
	qs     []float64
	loaded bool
	// busSec is the modelled AXI time of the last parameter load.
	busSec float64

	// obs receives structured events and metrics; nil disables.
	obs *obs.Emitter

	// flushed* snapshot the core's accounting accumulators at the last
	// metrics flush, so counter increments are deltas even though the
	// accumulators themselves are cumulative (and survive across episodes
	// but not across Reinitialize — the flush snapshots reset with them).
	flushedPredict, flushedSeq, flushedConv fixed.Acct
	// flushedGuard mirrors the same delta scheme for the seq_train
	// denominator guard trip counter.
	flushedGuard int64

	// profile records that device-level cycle profiling was requested
	// (EnableDeviceProfile / harness.Config.DeviceProfile); it survives
	// Reinitialize — Reset re-arms the fresh core. flushedProf is the
	// delta-flush snapshot for the fpga_cycles/fpga_bram_access counters,
	// mirroring the flushed* accounting scheme above.
	profile     bool
	flushedProf Prof
}

// NewAgent builds the FPGA agent with the default Q20 datapath. The
// variant is forced to OS-ELM-L2-Lipschitz (the design the paper
// synthesized); cfg's dimensions and hyperparameters are honored.
func NewAgent(cfg qnet.Config, cycles CycleModel) (*Agent, error) {
	return NewAgentQ(cfg, cycles, fixed.QFormat{})
}

// NewAgentQ is NewAgent with the datapath's Qm.f format selectable. The
// zero format is the Q20 default, bit-identical to NewAgent; resources
// and cycle counts do not depend on the format. cfg is validated as
// qnet.New validates it.
func NewAgentQ(cfg qnet.Config, cycles CycleModel, q fixed.QFormat) (*Agent, error) {
	cfg.Variant = qnet.VariantOSELML2Lipschitz
	if cfg.Delta == 0 {
		cfg.Delta = 0.5 // paper §4.1: δ = 0.5 for OS-ELM-L2-Lipschitz
	}
	// The synthesized design is the scalar-action, single-output ReLU
	// network with plain Q-learning targets; refuse what it would
	// silently drop.
	var unsupported []string
	if cfg.Activation.F != nil && cfg.Activation.Name != activation.ReLU.Name {
		unsupported = append(unsupported, "Activation "+cfg.Activation.Name)
	}
	if cfg.DoubleQ {
		unsupported = append(unsupported, "DoubleQ")
	}
	if cfg.OneHotActions {
		unsupported = append(unsupported, "OneHotActions")
	}
	if cfg.StandardOutputModel {
		unsupported = append(unsupported, "StandardOutputModel")
	}
	if len(unsupported) > 0 {
		return nil, fmt.Errorf("fpga: the device design does not implement %s", strings.Join(unsupported, ", "))
	}
	q = q.Normalized()
	var dp *datapath
	loop, err := qnet.NewWith(cfg, func(cfg qnet.Config) (qnet.Datapath, error) {
		res := EstimateResources(cfg.ObservationSize+1, cfg.Hidden)
		if !res.Feasible {
			return nil, fmt.Errorf("fpga: %d hidden units do not fit %s (needs %d/%d BRAM36)",
				cfg.Hidden, XC7Z020.Name, res.BRAM36, XC7Z020.BRAM36)
		}
		dp = &datapath{
			cpu:    qnet.NewFloat(cfg),
			beta2:  fixed.NewMatrixQ(cfg.Hidden, 1, q),
			bus:    DefaultBus(),
			cycles: cycles,
			q:      q,
			in:     make([]fixed.Fixed, cfg.ObservationSize+1),
			qs:     make([]float64, cfg.ActionCount),
		}
		return dp, nil
	})
	if err != nil {
		return nil, err
	}
	return &Agent{loop: loop, dp: dp}, nil
}

// MustNewAgent is NewAgent that panics on configuration errors.
func MustNewAgent(cfg qnet.Config, cycles CycleModel) *Agent {
	a, err := NewAgent(cfg, cycles)
	if err != nil {
		panic(err)
	}
	return a
}

// Name returns the paper's design name.
func (a *Agent) Name() string { return "FPGA" }

// Format returns the datapath's Qm.f format.
func (a *Agent) Format() fixed.QFormat { return a.dp.q }

// Counters exposes the accumulated timing counters. PL phases are in
// datapath cycles; init_train is in flops (see timing.ModelMixed).
func (a *Agent) Counters() *timing.Counters { return a.loop.Counters() }

// SetObserver installs the observability emitter (harness.Observable) and,
// when non-nil, turns on the core's per-module numeric-health accounting —
// accounting is free to the modelled hardware (no cycle or result change)
// but costs a few integer adds per op, so it follows the emitter's state.
func (a *Agent) SetObserver(e *obs.Emitter) {
	a.loop.SetObserver(e)
	a.dp.obs = e
	if e != nil && !a.dp.core.AccountingEnabled() {
		a.dp.core.EnableAccounting()
	}
}

// EnableDeviceProfile arms the core's device-level cycle profiler (the
// -profile flag, via harness.Config.DeviceProfile): every datapath cycle
// is attributed along (phase × kernel × unit) and BRAM bank accesses are
// counted, surfaced as delta-flushed fpga_cycles/fpga_bram_access
// counters, occupancy/roofline gauges and cumulative device_profile
// events. Profiling changes no datapath result and no cycle count. The
// metrics only flow once an observer is attached (SetObserver), but
// arming is independent so callers can wire either first; it survives
// Reinitialize.
func (a *Agent) EnableDeviceProfile() {
	a.dp.profile = true
	a.dp.core.EnableProfiling()
	a.dp.flushedProf = Prof{}
}

// DeviceProfileEnabled reports whether EnableDeviceProfile has been
// called.
func (a *Agent) DeviceProfileEnabled() bool { return a.dp.profile }

// Core exposes the datapath for white-box tests.
func (a *Agent) Core() *Core { return a.dp.core }

// Bus exposes the AXI transfer model (tests, reporting).
func (a *Agent) Bus() *Bus { return a.dp.bus }

// Trained reports whether the core has been loaded after init training.
func (a *Agent) Trained() bool { return a.dp.loaded }

// SelectAction implements Algorithm 1 lines 10-13.
func (a *Agent) SelectAction(state []float64) int { return a.loop.SelectAction(state) }

// GreedyAction evaluates without exploration.
func (a *Agent) GreedyAction(state []float64) int { return a.loop.GreedyAction(state) }

// Observe implements Algorithm 1 lines 14-22. The step that loads the
// core publishes the load's conversion accounting at once — a NaN or rail
// hit at the DMA boundary should alert now, not at the end of the episode
// — and the device profile with it, so the load phase's BRAM writes
// surface right away too.
func (a *Agent) Observe(t replay.Transition) error {
	loaded := a.dp.loaded
	err := a.loop.Observe(t)
	if a.dp.loaded && !loaded {
		a.dp.flushAccounting()
		a.dp.flushProfile()
	}
	return err
}

// EndEpisode runs Algorithm 1's episode end (the θ2 sync every
// UpdateEvery episodes) between flushes of the episode's numeric-health
// accounting and device profile.
func (a *Agent) EndEpisode(episode int) {
	a.dp.flushAccounting()
	a.loop.EndEpisode(episode)
	a.dp.flushProfile()
}

// Reinitialize draws fresh weights (the 300-episode reset rule), keeping
// accumulated timing counters.
func (a *Agent) Reinitialize() { a.loop.Reinitialize() }

// GlobalStep returns Observe calls since (re)initialization.
func (a *Agent) GlobalStep() int { return a.loop.GlobalStep() }

// Reset implements qnet.Datapath: fresh float weights and an empty core.
func (d *datapath) Reset(r *rng.RNG) {
	d.cpu.Reset(r)
	d.core = NewCoreQ(len(d.in), d.beta2.Rows(), 1, d.cycles, d.q)
	if d.obs != nil {
		d.core.EnableAccounting()
	}
	if d.profile {
		d.core.EnableProfiling()
	}
	d.flushedPredict, d.flushedSeq, d.flushedConv = fixed.Acct{}, fixed.Acct{}, fixed.Acct{}
	d.flushedGuard = 0
	d.flushedProf = Prof{}
	d.loaded = false
}

// Initialized implements qnet.Datapath.
func (d *datapath) Initialized() bool { return d.loaded }

func (d *datapath) encode(state []float64, action int) []fixed.Fixed {
	for i, v := range state {
		d.in[i] = d.q.FromFloat(v)
	}
	d.in[len(state)] = d.q.FromFloat(float64(action))
	return d.in
}

// Values implements qnet.Datapath: one predict invocation on the core per
// action, with θ1's β or θ2's. Before the load both are the untrained
// float θ1 on the CPU.
func (d *datapath) Values(state []float64, target bool) []float64 {
	if !d.loaded {
		return d.cpu.Values(state, target)
	}
	beta := d.core.Beta
	if target {
		beta = d.beta2
	}
	for act := range d.qs {
		d.qs[act] = d.q.Float(d.core.PredictUsing(beta, d.encode(state, act))[0])
	}
	return d.qs
}

// Probe implements qnet.Datapath through PredictSilent, which the cycle
// model, the accounting and the profiler do not see.
func (d *datapath) Probe(state []float64, action int) float64 {
	return d.q.Float(d.core.PredictSilent(d.encode(state, action))[0])
}

// InitTrain implements qnet.Datapath: the CPU-side ReOS-ELM initial
// training (Eq. 8), then the DMA load of the quantized parameters into
// the core over the AXI bus.
func (d *datapath) InitTrain(batch []replay.Transition, y []float64, event map[string]float64) error {
	d.busSec = 0
	if err := d.cpu.InitTrain(batch, y, nil); err != nil {
		return fmt.Errorf("fpga: cpu init training: %w", err)
	}
	t1 := d.cpu.Theta1()
	d.core.LoadFloat(t1.Alpha, t1.Bias, t1.Beta, t1.P)
	d.copyBeta2()
	d.busSec = d.bus.LoadCoreParameters(d.core)
	d.loaded = true
	if event != nil {
		event["bus_load_ms"] = d.busSec * 1e3
	}
	return nil
}

// SeqTrain implements qnet.Datapath with the core's seq_train module.
// With both tracing and profiling on, the profile is snapshotted around
// the update so its per-kernel breakdown can be replayed as spans on a
// dedicated modelled-device track.
func (d *datapath) SeqTrain(state []float64, action int, y float64) error {
	in := d.encode(state, action)
	kernelSpans := d.obs.Tracer() != nil && d.core.ProfilingEnabled()
	var profBefore Prof
	if kernelSpans {
		profBefore = *d.core.Prof()
	}
	d.target[0] = d.q.FromFloat(y)
	d.core.SeqTrain(in, d.target[:])
	if kernelSpans {
		d.emitKernelSpans(profBefore)
	}
	return nil
}

// Sync implements qnet.Datapath: θ2's β ← the core's β, once loaded.
func (d *datapath) Sync() bool {
	if !d.loaded {
		return false
	}
	d.copyBeta2()
	d.core.NoteTheta2Sync()
	return true
}

// copyBeta2 sets θ2's β to the core's β in place.
func (d *datapath) copyBeta2() {
	for i := 0; i < d.beta2.Rows(); i++ {
		copy(d.beta2.Row(i), d.core.Beta.Row(i))
	}
}

// Mark implements qnet.Datapath: the core's cycle counter.
func (d *datapath) Mark() int64 { return d.core.Cycles() }

// Charge implements qnet.Datapath. The PL phases cost the core cycles
// since mark, the CPU phases flops at the Cortex-A9 profile; a predict is
// one invocation (and, on the PL, one AXI handshake) per action
// candidate. init_train also carries the AXI bulk load of the quantized
// parameters, converted to the CPU profile's work units so the breakdown
// stays single-unit per phase.
func (d *datapath) Charge(c *timing.Counters, p timing.Phase, flops float64, mark int64) float64 {
	calls := int64(1)
	if p == timing.PhasePredictInit || p == timing.PhasePredictSeq {
		calls = int64(len(d.qs))
	}
	if p == timing.PhasePredictSeq || p == timing.PhaseSeqTrain {
		cycles := float64(d.core.Cycles() - mark)
		c.AddN(p, calls, cycles)
		return timing.FPGA125.Seconds(p, calls, cycles)
	}
	c.AddN(p, calls, flops)
	if p == timing.PhaseInitTrain {
		bus := d.busSec * timing.CortexA9Init.WorkUnitsPerSec
		c.AddN(p, 0, bus)
		flops += bus
	}
	return timing.CortexA9Init.Seconds(p, calls, flops)
}

// Health implements qnet.Datapath from the core's β and P.
func (d *datapath) Health() oselm.NumericHealth {
	norm := d.core.Beta.FrobeniusNorm()
	return oselm.NumericHealth{
		BetaNorm: norm,
		// β is a single column, so its largest singular value is its norm.
		BetaSigmaMax: norm,
		PTrace:       d.core.P.Trace() / float64(d.core.HiddenSize()),
		PCondProxy: oselm.DiagCondProxy(d.core.HiddenSize(), func(i int) float64 {
			return d.q.Float(d.core.P.At(i, i))
		}),
	}
}

// emitKernelSpans records one span per seq_train kernel that charged
// cycles since the profile snapshot, on the dedicated "device-kernels"
// trace group: the exporter lays modelled spans end-to-end per group, so
// the track reads as the paper-style cycle breakdown of each update.
// Kernel spans carry pure datapath time (cycles at 125 MHz, no AXI
// overhead — the parent seq_train span already models the handshake).
func (d *datapath) emitKernelSpans(before Prof) {
	tr := d.obs.Tracer()
	if tr == nil {
		return
	}
	cur := d.core.Prof()
	for k := ProfKernel(0); k < NumProfKernels; k++ {
		var cyc int64
		for u := ProfUnit(0); u < NumProfUnits; u++ {
			cyc += cur.Cycles(ProfSeqTrain, k, u) - before.Cycles(ProfSeqTrain, k, u)
		}
		if cyc > 0 {
			ks := tr.StartSpanGroup("kern:"+k.String(), "device-kernels")
			ks.EndModelled(timing.FPGA125.WorkSeconds(float64(cyc)))
		}
	}
}

// flushAccounting publishes the core's numeric-health accounting to the
// metrics registry: counter increments are deltas since the last flush
// (the accumulators are cumulative), gauges carry the cumulative
// quantization error and run-so-far saturation rates the watchdog
// evaluates.
func (d *datapath) flushAccounting() {
	if d.obs == nil || !d.core.AccountingEnabled() {
		return
	}
	pa, sa, ca := *d.core.PredictAcct(), *d.core.SeqTrainAcct(), *d.core.ConvAcct()
	d.obs.Inc(obs.MetricFixedOpsPredict, pa.Ops-d.flushedPredict.Ops)
	d.obs.Inc(obs.MetricFixedSaturationsPredict, pa.Saturations-d.flushedPredict.Saturations)
	d.obs.Inc(obs.MetricFixedOpsSeqTrain, sa.Ops-d.flushedSeq.Ops)
	d.obs.Inc(obs.MetricFixedSaturationsSeqTrain, sa.Saturations-d.flushedSeq.Saturations)
	d.obs.Inc(obs.MetricFixedOpsLoad, ca.Ops-d.flushedConv.Ops)
	d.obs.Inc(obs.MetricFixedSaturationsLoad, ca.Saturations-d.flushedConv.Saturations)
	if n := (pa.NaNs - d.flushedPredict.NaNs) + (sa.NaNs - d.flushedSeq.NaNs) +
		(ca.NaNs - d.flushedConv.NaNs); n > 0 {
		d.obs.Inc(obs.MetricFixedNaNs, n)
	}
	d.obs.SetGauge(obs.GaugeFixedQuantErrPredict, pa.QuantErrAbs)
	d.obs.SetGauge(obs.GaugeFixedQuantErrSeqTrain, sa.QuantErrAbs)
	d.obs.SetGauge(obs.GaugeFixedQuantErrLoad, ca.QuantErrAbs)
	d.obs.SetGauge(obs.GaugeFixedSaturationRatePredict, pa.SaturationRate())
	d.obs.SetGauge(obs.GaugeFixedSaturationRateSeqTrain, sa.SaturationRate())
	if trips := d.core.DenomGuardTrips(); trips > d.flushedGuard {
		d.obs.Inc(obs.MetricFixedDenomGuard, trips-d.flushedGuard)
		if d.flushedGuard == 0 {
			// First trip of the run: a rejected Eq. 5 update means P was
			// saturated or poisoned — surface it as a numeric alert, once,
			// the same shape the divergence watchdog emits.
			d.obs.With(map[string]string{
				"rule":   "seq_train_denom_guard",
				"metric": obs.MetricFixedDenomGuard,
			}).Emit(obs.EventNumericAlert, 0, map[string]float64{
				"value":     float64(trips),
				"threshold": d.q.Float(d.core.denomFloor),
			})
		}
		d.flushedGuard = trips
	}
	d.flushedPredict, d.flushedSeq, d.flushedConv = pa, sa, ca
}

// flushProfile publishes the device profiler's attribution to the
// metrics registry (counter increments are deltas since the last flush,
// built with obs.Labeled keys the export layer renders as Prometheus
// labels), refreshes the cumulative occupancy/roofline gauges, and emits
// one cumulative device_profile event — the record cmd/runlog's profile
// report is built from. No-op when nothing changed since the last flush.
func (d *datapath) flushProfile() {
	if d.obs == nil || !d.core.ProfilingEnabled() {
		return
	}
	cur := *d.core.Prof()
	if cur == d.flushedProf {
		return
	}
	data := map[string]float64{"total_cycles": float64(cur.TotalCycles())}
	for ph := ProfPhase(0); ph < NumProfPhases; ph++ {
		for k := ProfKernel(0); k < NumProfKernels; k++ {
			for u := ProfUnit(0); u < NumProfUnits; u++ {
				v := cur.Cycles(ph, k, u)
				if v != 0 {
					data["cycles_"+ph.String()+"_"+k.String()+"_"+u.String()] = float64(v)
				}
				if n := v - d.flushedProf.Cycles(ph, k, u); n != 0 {
					d.obs.Inc(obs.Labeled(obs.MetricFPGACycles,
						"phase", ph.String(), "kernel", k.String(), "unit", u.String()), n)
				}
			}
		}
	}
	for bank := Bank(0); bank < NumBanks; bank++ {
		for op := BankOp(0); op < NumBankOps; op++ {
			v := cur.BRAM(bank, op)
			if v != 0 {
				data["bram_"+bank.String()+"_"+op.String()] = float64(v)
			}
			if n := v - d.flushedProf.BRAM(bank, op); n != 0 {
				d.obs.Inc(obs.Labeled(obs.MetricFPGABRAMAccess,
					"bank", bank.String(), "op", op.String()), n)
			}
		}
	}
	if cur.TotalCycles() > 0 {
		for u := UnitAdd; u <= UnitInvoke; u++ {
			d.obs.SetGauge(obs.Labeled(obs.GaugeFPGAUnitBusy, "unit", u.String()),
				cur.UnitBusyFraction(u))
			if n := cur.UnitOps(u); n > 0 {
				data["ops_"+u.String()] = float64(n)
			}
		}
		d.obs.SetGauge(obs.GaugeFPGAOpsPerCycle, cur.OpsPerCycle())
	}
	d.obs.Emit(obs.EventDeviceProfile, 0, data)
	d.flushedProf = cur
}

// PhaseProfiles returns the per-phase device profiles for ModelMixed: PL
// phases at 125 MHz cycles, CPU phases at the software profile.
func PhaseProfiles() map[timing.Phase]timing.Profile {
	return map[timing.Phase]timing.Profile{
		timing.PhasePredictSeq:  timing.FPGA125,
		timing.PhaseSeqTrain:    timing.FPGA125,
		timing.PhaseInitTrain:   timing.CortexA9Init,
		timing.PhasePredictInit: timing.CortexA9Init,
	}
}
