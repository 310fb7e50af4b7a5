package fpga

import (
	"fmt"
	"math"
	"time"

	"oselmrl/internal/elm"
	"oselmrl/internal/fixed"
	"oselmrl/internal/mat"
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
// The control flow is Algorithm 1 exactly as internal/qnet implements it
// in floating point; here the Determine/Update hot paths run on the
// cycle-counted fixed-point datapath (Q20 by default; NewAgentQ selects
// any Qm.f format), and work is recorded in datapath cycles
// (timing.FPGA125 converts them) for the PL phases and in flops
// (timing.CortexA9Init) for the CPU-side init_train.
type Agent struct {
	cfg qnet.Config
	rng *rng.RNG

	// cpu is the float-side model used before the core is loaded: it owns
	// the random α/b (with spectral normalization) and runs init_train.
	cpu *oselm.Model
	// core is the PL datapath holding the quantized θ1.
	core *Core
	// beta2 is the quantized target-network output weights (θ2's β; α and
	// b are shared with θ1 since they are frozen).
	beta2 *fixed.Matrix

	buffer     *replay.InitStore
	globalStep int
	loaded     bool
	bus        *Bus

	dims        timing.OSELMDims
	counters    *timing.Counters
	cycles      CycleModel
	q           fixed.QFormat
	scratch     []fixed.Fixed
	target      [1]fixed.Fixed // the seq_train target word
	exploreProb float64

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
	// Reinitialize — initModels re-arms the fresh core. flushedProf is
	// the delta-flush snapshot for the fpga_cycles/fpga_bram_access
	// counters, mirroring the flushed* accounting scheme above.
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
// and cycle counts do not depend on the format.
func NewAgentQ(cfg qnet.Config, cycles CycleModel, q fixed.QFormat) (*Agent, error) {
	cfg.Variant = qnet.VariantOSELML2Lipschitz
	if cfg.Delta == 0 {
		cfg.Delta = 0.5 // paper §4.1: δ = 0.5 for OS-ELM-L2-Lipschitz
	}
	if cfg.ObservationSize <= 0 || cfg.ActionCount <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("fpga: invalid dimensions obs=%d actions=%d hidden=%d",
			cfg.ObservationSize, cfg.ActionCount, cfg.Hidden)
	}
	if cfg.ExploreDecay <= 0 || cfg.ExploreDecay > 1 {
		return nil, fmt.Errorf("fpga: ExploreDecay must be in (0, 1]: %g", cfg.ExploreDecay)
	}
	res := EstimateResources(cfg.ObservationSize+1, cfg.Hidden)
	if !res.Feasible {
		return nil, fmt.Errorf("fpga: %d hidden units do not fit %s (needs %d/%d BRAM36)",
			cfg.Hidden, XC7Z020.Name, res.BRAM36, XC7Z020.BRAM36)
	}
	a := &Agent{
		cfg:      cfg,
		rng:      rng.New(cfg.Seed),
		buffer:   replay.NewInitStore(cfg.Hidden),
		counters: timing.NewCounters(),
		cycles:   cycles,
		q:        q.Normalized(),
		dims: timing.OSELMDims{
			In:     cfg.ObservationSize + 1,
			Hidden: cfg.Hidden,
			Out:    1,
		},
	}
	a.scratch = make([]fixed.Fixed, a.dims.In)
	a.bus = DefaultBus()
	a.initModels()
	return a, nil
}

// MustNewAgent is NewAgent that panics on configuration errors.
func MustNewAgent(cfg qnet.Config, cycles CycleModel) *Agent {
	a, err := NewAgent(cfg, cycles)
	if err != nil {
		panic(err)
	}
	return a
}

func (a *Agent) initModels() {
	opts := elm.Options{
		InitLow:                a.cfg.InitLow,
		InitHigh:               a.cfg.InitHigh,
		SpectralNormalizeAlpha: true,
	}
	if opts.InitLow == 0 && opts.InitHigh == 0 {
		opts.InitLow, opts.InitHigh = -1, 1
	}
	base := elm.NewModel(a.dims.In, a.cfg.Hidden, 1, a.cfg.Activation, a.rng, opts)
	a.cpu = oselm.New(base, a.cfg.Delta)
	a.core = NewCoreQ(a.dims.In, a.cfg.Hidden, 1, a.cycles, a.q)
	if a.obs != nil {
		a.core.EnableAccounting()
	}
	if a.profile {
		a.core.EnableProfiling()
	}
	a.flushedPredict, a.flushedSeq, a.flushedConv = fixed.Acct{}, fixed.Acct{}, fixed.Acct{}
	a.flushedGuard = 0
	a.flushedProf = Prof{}
	a.beta2 = fixed.NewMatrixQ(a.cfg.Hidden, 1, a.q)
	a.buffer.Clear()
	a.globalStep = 0
	a.loaded = false
	a.exploreProb = 1 - a.cfg.Epsilon1
}

// Name returns the paper's design name.
func (a *Agent) Name() string { return "FPGA" }

// Format returns the datapath's Qm.f format.
func (a *Agent) Format() fixed.QFormat { return a.q }

// Counters exposes the accumulated timing counters. PL phases are in
// datapath cycles; init_train is in flops (see timing.ModelMixed).
func (a *Agent) Counters() *timing.Counters { return a.counters }

// SetObserver installs the observability emitter (harness.Observable) and,
// when non-nil, turns on the core's per-module numeric-health accounting —
// accounting is free to the modelled hardware (no cycle or result change)
// but costs a few integer adds per op, so it follows the emitter's state.
func (a *Agent) SetObserver(e *obs.Emitter) {
	a.obs = e
	if e != nil && !a.core.AccountingEnabled() {
		a.core.EnableAccounting()
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
	a.profile = true
	a.core.EnableProfiling()
	a.flushedProf = Prof{}
}

// DeviceProfileEnabled reports whether EnableDeviceProfile has been
// called.
func (a *Agent) DeviceProfileEnabled() bool { return a.profile }

// Core exposes the datapath for white-box tests.
func (a *Agent) Core() *Core { return a.core }

// Trained reports whether the core has been loaded after init training.
func (a *Agent) Trained() bool { return a.loaded }

func (a *Agent) encode(state []float64, action int) []fixed.Fixed {
	for i, v := range state {
		a.scratch[i] = a.q.FromFloat(v)
	}
	a.scratch[len(state)] = a.q.FromFloat(float64(action))
	return a.scratch
}

// maxQCore evaluates max/argmax over actions on the core using beta.
func (a *Agent) maxQCore(beta *fixed.Matrix, state []float64) (float64, int) {
	best, arg, ties := math.Inf(-1), 0, 0
	for act := 0; act < a.cfg.ActionCount; act++ {
		in := a.encode(state, act)
		var q float64
		if beta == nil {
			q = a.q.Float(a.core.Predict(in)[0])
		} else {
			q = a.q.Float(a.core.PredictUsing(beta, in)[0])
		}
		switch {
		case q > best:
			best, arg, ties = q, act, 1
		case q == best:
			ties++
			if a.rng.Intn(ties) == 0 {
				arg = act
			}
		}
	}
	return best, arg
}

// maxQCPU is the pre-load float path (before init training completes).
func (a *Agent) maxQCPU(state []float64, useTheta2 bool) (float64, int) {
	in := make([]float64, a.dims.In)
	copy(in, state)
	best, arg, ties := math.Inf(-1), 0, 0
	for act := 0; act < a.cfg.ActionCount; act++ {
		in[len(state)] = float64(act)
		q := a.cpu.PredictOne(in)[0]
		_ = useTheta2 // pre-load, θ2 == θ1 == untrained; same model
		switch {
		case q > best:
			best, arg, ties = q, act, 1
		case q == best:
			ties++
			if a.rng.Intn(ties) == 0 {
				arg = act
			}
		}
	}
	return best, arg
}

// SelectAction implements Algorithm 1 lines 10-13.
func (a *Agent) SelectAction(state []float64) int {
	if a.rng.Float64() < a.exploreProb {
		return a.rng.Intn(a.cfg.ActionCount)
	}
	if !a.loaded {
		sp := a.obs.StartSpan(string(timing.PhasePredictInit))
		_, act := a.maxQCPU(state, false)
		a.counters.AddN(timing.PhasePredictInit, int64(a.cfg.ActionCount),
			float64(a.cfg.ActionCount)*a.dims.PredictFlops())
		if sp.Active() {
			sp.EndModelled(timing.CortexA9Init.Seconds(timing.PhasePredictInit,
				int64(a.cfg.ActionCount), float64(a.cfg.ActionCount)*a.dims.PredictFlops()))
		}
		return act
	}
	sp := a.obs.StartSpan(string(timing.PhasePredictSeq))
	start := a.core.Cycles()
	_, act := a.maxQCore(nil, state)
	cycles := float64(a.core.Cycles() - start)
	a.counters.AddN(timing.PhasePredictSeq, int64(a.cfg.ActionCount), cycles)
	if sp.Active() {
		// Modelled PL time: datapath cycles at 125 MHz plus one AXI
		// handshake per action-candidate invocation.
		sp.EndModelled(timing.FPGA125.Seconds(timing.PhasePredictSeq,
			int64(a.cfg.ActionCount), cycles))
	}
	return act
}

// GreedyAction evaluates without exploration.
func (a *Agent) GreedyAction(state []float64) int {
	if !a.loaded {
		_, act := a.maxQCPU(state, false)
		return act
	}
	_, act := a.maxQCore(nil, state)
	return act
}

// Observe implements Algorithm 1 lines 14-22.
func (a *Agent) Observe(t replay.Transition) error {
	a.globalStep++
	if !a.loaded {
		sp := a.obs.StartSpan("buffer_refill")
		a.buffer.Add(t)
		if a.obs != nil {
			a.obs.SetGauge(obs.GaugeBufferOccupancy, float64(a.buffer.Len())/float64(a.buffer.Cap()))
		}
		sp.End()
		if a.buffer.Full() {
			return a.initTrain()
		}
		return nil
	}
	if a.rng.Float64() < a.cfg.Epsilon2 {
		a.sequentialUpdate(t)
	} else {
		a.obs.Inc(obs.MetricSeqSkipped, 1)
	}
	return nil
}

// initTrain runs the CPU-side ReOS-ELM initial training (Eq. 8) and DMA-loads
// the quantized parameters into the core.
func (a *Agent) initTrain() error {
	sp := a.obs.StartSpan(string(timing.PhaseInitTrain))
	t0 := a.obs.Now()
	trans := a.buffer.Drain()
	k := len(trans)
	x := mat.Zeros(k, a.dims.In)
	y := mat.Zeros(k, 1)
	in := make([]float64, a.dims.In)
	for i, tr := range trans {
		copy(in, tr.State)
		in[len(tr.State)] = float64(tr.Action)
		x.SetRow(i, in)
		// Targets from the untrained θ2 are just the clipped rewards; the
		// float path computes them exactly as qnet does.
		yv := tr.Reward
		if !tr.Done {
			next, _ := a.maxQCPU(tr.NextState, true)
			yv += a.cfg.Gamma * next
		}
		if yv < a.cfg.ClipLow {
			yv = a.cfg.ClipLow
		}
		if yv > a.cfg.ClipHigh {
			yv = a.cfg.ClipHigh
		}
		y.Set(i, 0, yv)
	}
	if err := a.cpu.InitTrain(x, y); err != nil {
		return fmt.Errorf("fpga: cpu init training: %w", err)
	}
	work := float64(k*a.cfg.ActionCount)*a.dims.PredictFlops() + a.dims.InitTrainFlops(k)
	a.counters.Add(timing.PhaseInitTrain, work)

	a.core.LoadFloat(a.cpu.Alpha, a.cpu.Bias, a.cpu.Beta, a.cpu.P)
	a.beta2 = fixed.FromDenseQ(a.cpu.Beta, a.q, nil)
	// The AXI bulk load of the quantized parameters rides on the CPU side
	// of the init_train phase; its duration converts to that profile's
	// work units so the breakdown stays single-unit per phase.
	busSec := a.bus.LoadCoreParameters(a.core)
	a.counters.AddN(timing.PhaseInitTrain, 0, busSec*timing.CortexA9Init.WorkUnitsPerSec)
	a.loaded = true
	if a.obs != nil {
		// CPU-side modelled time for the solve plus the AXI bulk load,
		// expressed in the same profile's work units as the counters.
		model := timing.CortexA9Init.Seconds(timing.PhaseInitTrain, 1,
			work+busSec*timing.CortexA9Init.WorkUnitsPerSec)
		sp.EndModelled(model)
		d := time.Since(t0)
		a.obs.AddWall(string(timing.PhaseInitTrain), d)
		a.obs.Inc(obs.MetricInitTrains, 1)
		a.obs.SetGauge(obs.GaugeBufferOccupancy, 0)
		a.obs.Emit(obs.EventInitTrain, 0, map[string]float64{
			"size":        float64(k),
			"step":        float64(a.globalStep),
			"bus_load_ms": busSec * 1e3,
			"dur_ms":      float64(d) / float64(time.Millisecond),
			"model_ms":    model * 1e3,
		})
		// Publish the parameter-load conversion accounting immediately —
		// a NaN or rail hit at the DMA boundary should alert now, not at
		// the end of the episode. The device profile flushes with it so
		// the load phase's BRAM writes surface right away too.
		a.flushAccounting()
		a.flushProfile()
	}
	return nil
}

// sequentialUpdate computes the clipped target with the θ2 β on the core
// and runs the seq_train module.
func (a *Agent) sequentialUpdate(t replay.Transition) {
	sp := a.obs.StartSpan(string(timing.PhaseSeqTrain))
	t0 := a.obs.Now()
	start := a.core.Cycles()
	y := t.Reward
	if !t.Done {
		next, _ := a.maxQCore(a.beta2, t.NextState)
		y += a.cfg.Gamma * next
	}
	clipped := false
	if y < a.cfg.ClipLow {
		y = a.cfg.ClipLow
		clipped = true
	}
	if y > a.cfg.ClipHigh {
		y = a.cfg.ClipHigh
		clipped = true
	}
	in := a.encode(t.State, t.Action)
	// pred is θ1's Q(s,a) before the update, read through PredictSilent so
	// the observability probe is invisible to the cycle model and the
	// accounting (the real core would not execute it).
	pred := math.NaN()
	if a.obs != nil {
		pred = a.q.Float(a.core.PredictSilent(in)[0])
	}
	// With both tracing and profiling on, snapshot the profile around
	// SeqTrain so the update's per-kernel breakdown can be replayed as
	// spans on a dedicated modelled-device track.
	kernelSpans := sp.Active() && a.core.ProfilingEnabled()
	var profBefore Prof
	if kernelSpans {
		profBefore = *a.core.Prof()
	}
	a.target[0] = a.q.FromFloat(y)
	a.core.SeqTrain(in, a.target[:])
	cycles := float64(a.core.Cycles() - start)
	a.counters.Add(timing.PhaseSeqTrain, cycles)
	if kernelSpans {
		a.emitKernelSpans(profBefore)
	}
	if a.obs != nil {
		model := timing.FPGA125.Seconds(timing.PhaseSeqTrain, 1, cycles)
		sp.EndModelled(model)
		d := time.Since(t0)
		tdErr := y - pred
		a.obs.AddWall(string(timing.PhaseSeqTrain), d)
		a.obs.Inc(obs.MetricSeqUpdates, 1)
		a.obs.Inc(obs.MetricTargets, 1)
		if clipped {
			a.obs.Inc(obs.MetricTargetsClipped, 1)
		}
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
}

// emitKernelSpans records one span per seq_train kernel that charged
// cycles since the profile snapshot, on the dedicated "device-kernels"
// trace group: the exporter lays modelled spans end-to-end per group, so
// the track reads as the paper-style cycle breakdown of each update.
// Kernel spans carry pure datapath time (cycles at 125 MHz, no AXI
// overhead — the parent seq_train span already models the handshake).
func (a *Agent) emitKernelSpans(before Prof) {
	tr := a.obs.Tracer()
	if tr == nil {
		return
	}
	cur := a.core.Prof()
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
func (a *Agent) flushAccounting() {
	if a.obs == nil || !a.core.AccountingEnabled() {
		return
	}
	pa, sa, ca := *a.core.PredictAcct(), *a.core.SeqTrainAcct(), *a.core.ConvAcct()
	a.obs.Inc(obs.MetricFixedOpsPredict, pa.Ops-a.flushedPredict.Ops)
	a.obs.Inc(obs.MetricFixedSaturationsPredict, pa.Saturations-a.flushedPredict.Saturations)
	a.obs.Inc(obs.MetricFixedOpsSeqTrain, sa.Ops-a.flushedSeq.Ops)
	a.obs.Inc(obs.MetricFixedSaturationsSeqTrain, sa.Saturations-a.flushedSeq.Saturations)
	a.obs.Inc(obs.MetricFixedOpsLoad, ca.Ops-a.flushedConv.Ops)
	a.obs.Inc(obs.MetricFixedSaturationsLoad, ca.Saturations-a.flushedConv.Saturations)
	if d := (pa.NaNs - a.flushedPredict.NaNs) + (sa.NaNs - a.flushedSeq.NaNs) +
		(ca.NaNs - a.flushedConv.NaNs); d > 0 {
		a.obs.Inc(obs.MetricFixedNaNs, d)
	}
	a.obs.SetGauge(obs.GaugeFixedQuantErrPredict, pa.QuantErrAbs)
	a.obs.SetGauge(obs.GaugeFixedQuantErrSeqTrain, sa.QuantErrAbs)
	a.obs.SetGauge(obs.GaugeFixedQuantErrLoad, ca.QuantErrAbs)
	a.obs.SetGauge(obs.GaugeFixedSaturationRatePredict, pa.SaturationRate())
	a.obs.SetGauge(obs.GaugeFixedSaturationRateSeqTrain, sa.SaturationRate())
	if trips := a.core.DenomGuardTrips(); trips > a.flushedGuard {
		a.obs.Inc(obs.MetricFixedDenomGuard, trips-a.flushedGuard)
		if a.flushedGuard == 0 {
			// First trip of the run: a rejected Eq. 5 update means P was
			// saturated or poisoned — surface it as a numeric alert, once,
			// the same shape the divergence watchdog emits.
			a.obs.With(map[string]string{
				"rule":   "seq_train_denom_guard",
				"metric": obs.MetricFixedDenomGuard,
			}).Emit(obs.EventNumericAlert, 0, map[string]float64{
				"value":     float64(trips),
				"threshold": a.q.Float(a.core.denomFloor),
			})
		}
		a.flushedGuard = trips
	}
	a.flushedPredict, a.flushedSeq, a.flushedConv = pa, sa, ca
}

// flushProfile publishes the device profiler's attribution to the
// metrics registry (counter increments are deltas since the last flush,
// built with obs.Labeled keys the export layer renders as Prometheus
// labels), refreshes the cumulative occupancy/roofline gauges, and emits
// one cumulative device_profile event — the record cmd/runlog's profile
// report is built from. No-op when nothing changed since the last flush.
func (a *Agent) flushProfile() {
	if a.obs == nil || !a.core.ProfilingEnabled() {
		return
	}
	cur := *a.core.Prof()
	if cur == a.flushedProf {
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
				if d := v - a.flushedProf.Cycles(ph, k, u); d != 0 {
					a.obs.Inc(obs.Labeled(obs.MetricFPGACycles,
						"phase", ph.String(), "kernel", k.String(), "unit", u.String()), d)
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
			if d := v - a.flushedProf.BRAM(bank, op); d != 0 {
				a.obs.Inc(obs.Labeled(obs.MetricFPGABRAMAccess,
					"bank", bank.String(), "op", op.String()), d)
			}
		}
	}
	if cur.TotalCycles() > 0 {
		for u := UnitAdd; u <= UnitInvoke; u++ {
			a.obs.SetGauge(obs.Labeled(obs.GaugeFPGAUnitBusy, "unit", u.String()),
				cur.UnitBusyFraction(u))
			if n := cur.UnitOps(u); n > 0 {
				data["ops_"+u.String()] = float64(n)
			}
		}
		a.obs.SetGauge(obs.GaugeFPGAOpsPerCycle, cur.OpsPerCycle())
	}
	a.obs.Emit(obs.EventDeviceProfile, 0, data)
	a.flushedProf = cur
}

// EndEpisode syncs θ2's β every UpdateEvery episodes (Algorithm 1 line 23-24)
// and flushes the episode's numeric-health accounting and device profile.
func (a *Agent) EndEpisode(episode int) {
	a.exploreProb *= a.cfg.ExploreDecay
	a.flushAccounting()
	if episode%a.cfg.UpdateEvery == 0 && a.loaded {
		a.beta2 = a.core.Beta.Clone()
		a.core.NoteTheta2Sync()
		if a.obs != nil {
			betaNorm := a.core.Beta.FrobeniusNorm()
			a.obs.Inc(obs.MetricTheta2Syncs, 1)
			a.obs.SetGauge(obs.GaugeLearnBetaNorm, betaNorm)
			a.obs.SetGauge(obs.GaugeLearnPTrace, a.core.P.Trace()/float64(a.cfg.Hidden))
			a.obs.Emit(obs.EventTheta2Sync, episode, map[string]float64{
				"beta_norm": betaNorm,
			})
		}
	}
	a.flushProfile()
}

// Reinitialize draws fresh weights (the 300-episode reset rule), keeping
// accumulated timing counters.
func (a *Agent) Reinitialize() { a.initModels() }

// GlobalStep returns Observe calls since (re)initialization.
func (a *Agent) GlobalStep() int { return a.globalStep }

// Bus exposes the AXI transfer model (tests, reporting).
func (a *Agent) Bus() *Bus { return a.bus }

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
