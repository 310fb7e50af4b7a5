package fpga

import (
	"math"
	"strings"
	"testing"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/env"
	"oselmrl/internal/fixed"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
	"oselmrl/internal/timing"
)

func trainedFloatModel(t *testing.T, hidden int) *oselm.Model {
	t.Helper()
	r := rng.New(1)
	base := elm.NewModel(5, hidden, 1, activation.ReLU, r,
		elm.Options{InitLow: -1, InitHigh: 1, SpectralNormalizeAlpha: true})
	m := oselm.New(base, 0.5)
	x := mat.Zeros(hidden, 5)
	y := mat.Zeros(hidden, 1)
	r.FillUniform(x.RawData(), -1, 1)
	r.FillUniform(y.RawData(), -1, 1)
	if err := m.InitTrain(x, y); err != nil {
		t.Fatal(err)
	}
	return m
}

func loadedCore(t *testing.T, m *oselm.Model) *Core {
	t.Helper()
	c := NewCore(5, m.HiddenSize(), 1, DefaultCycleModel())
	c.LoadFloat(m.Alpha, m.Bias, m.Beta, m.P)
	return c
}

// TestPredictMatchesFloat: the fixed-point predict module must agree with
// the float model within the Q20 error budget.
func TestPredictMatchesFloat(t *testing.T) {
	m := trainedFloatModel(t, 32)
	c := loadedCore(t, m)
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		x := make([]float64, 5)
		r.FillUniform(x, -2, 2)
		want := m.PredictOne(x)[0]
		got := c.PredictFloat(x)[0]
		if math.Abs(got-want) > 1e-3 {
			t.Fatalf("predict mismatch: float %v fixed %v", want, got)
		}
	}
}

// TestSeqTrainTracksFloat: after many identical updates, the fixed-point β
// must track the float β within a small bound (quantization drift).
func TestSeqTrainTracksFloat(t *testing.T) {
	m := trainedFloatModel(t, 16)
	c := loadedCore(t, m)
	r := rng.New(3)
	for i := 0; i < 2000; i++ {
		x := make([]float64, 5)
		r.FillUniform(x, -1, 1)
		y := r.Uniform(-1, 1)
		if err := m.SeqTrainOne(x, []float64{y}); err != nil {
			t.Fatal(err)
		}
		c.SeqTrainFloat(x, []float64{y})
	}
	probe := []float64{0.2, -0.3, 0.5, -0.1, 1}
	d := math.Abs(m.PredictOne(probe)[0] - c.PredictFloat(probe)[0])
	if d > 0.1 {
		t.Errorf("prediction drift after 2000 updates = %v", d)
	}
	// P must also track.
	if e := c.P.MaxAbsError(m.P); e > 0.05 {
		t.Errorf("P drift = %v", e)
	}
}

// TestSeqTrainCyclesQuadratic: doubling Ñ must roughly quadruple seq_train
// cycles (the paper's §4.4 growth argument).
func TestSeqTrainCyclesQuadratic(t *testing.T) {
	seq := func(hidden int) int64 {
		return AnalyticKernelCosts(5, hidden, 1, DefaultCycleModel())[KernelSeqTrain]
	}
	c32, c64, c128 := seq(32), seq(64), seq(128)
	if r := float64(c64) / float64(c32); r < 3 || r > 4.5 {
		t.Errorf("32→64 cycle ratio %v", r)
	}
	if r := float64(c128) / float64(c64); r < 3.4 || r > 4.4 {
		t.Errorf("64→128 cycle ratio %v", r)
	}
}

// TestPredictUsingRestoresBeta: the θ2 path must not corrupt θ1's BRAM.
func TestPredictUsingRestoresBeta(t *testing.T) {
	m := trainedFloatModel(t, 8)
	c := loadedCore(t, m)
	beta2 := fixed.NewMatrix(8, 1) // all zeros
	x := make([]fixed.Fixed, 5)
	for i := range x {
		x[i] = fixed.FromFloat(0.5)
	}
	out2 := c.PredictUsing(beta2, x)
	if out2[0] != 0 {
		t.Error("zero β2 must predict 0")
	}
	out1 := c.Predict(x)
	if out1[0] == 0 && m.PredictOne([]float64{0.5, 0.5, 0.5, 0.5, 0.5})[0] != 0 {
		t.Error("θ1 β corrupted by PredictUsing")
	}
}

// TestTable3Resources: the resource model must reproduce paper Table 3 at
// the synthesized design points, and the 256-unit design must not fit.
func TestTable3Resources(t *testing.T) {
	want := map[int][4]float64{ // BRAM%, DSP%, FF%, LUT%
		32:  {2.86, 1.82, 1.49, 3.52},
		64:  {11.43, 1.82, 4.5, 5},
		128: {45.71, 1.82, 4.5, 7.93},
		192: {91.43, 1.82, 6.44, 11.03},
	}
	for hidden, w := range want {
		u := EstimateResources(5, hidden)
		if !u.Feasible {
			t.Errorf("%d units must fit the device", hidden)
		}
		b, d, f, l := u.Percent(XC7Z020)
		got := [4]float64{b, d, f, l}
		for i, g := range got {
			if math.Abs(g-w[i]) > 0.25 {
				t.Errorf("%d units: resource %d = %.2f%%, Table 3 says %.2f%%", hidden, i, g, w[i])
			}
		}
	}
	if u := EstimateResources(5, 256); u.Feasible {
		t.Error("256 units must exceed the device's BRAM (paper Table 3)")
	}
}

func TestTable3Sweep(t *testing.T) {
	rows := Table3Sweep()
	if len(rows) != 5 {
		t.Fatalf("sweep rows = %d", len(rows))
	}
	// BRAM demand must be monotonically increasing in Ñ.
	for i := 1; i < len(rows); i++ {
		if rows[i].BRAM36 <= rows[i-1].BRAM36 {
			t.Errorf("BRAM not increasing: %v then %v", rows[i-1].BRAM36, rows[i].BRAM36)
		}
	}
	// DSP count is constant (single shared add/mul/div unit).
	for _, r := range rows {
		if r.DSP48 != 4 {
			t.Errorf("%d units: DSP = %d, want the constant 4", r.Hidden, r.DSP48)
		}
	}
	if rows[4].Feasible {
		t.Error("256-unit row must be infeasible")
	}
}

func TestEstimateResourcesNonPaperSize(t *testing.T) {
	// Non-tabulated sizes use the inventory model; sanity-check monotone
	// growth and feasibility at small sizes.
	u48 := EstimateResources(5, 48)
	u96 := EstimateResources(5, 96)
	if !u48.Feasible || !u96.Feasible {
		t.Error("mid sizes must fit")
	}
	if u96.BRAM36 <= u48.BRAM36 {
		t.Error("BRAM must grow with hidden width")
	}
	// A different input size must not hit the calibration table.
	u := EstimateResources(7, 64)
	if u.Hidden != 64 || u.BRAM36 <= 0 {
		t.Error("inventory path broken for non-CartPole input size")
	}
}

// TestAgentRejectsInfeasible: constructing a 256-unit agent must fail like
// the paper's synthesis did.
func TestAgentRejectsInfeasible(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 256)
	if _, err := NewAgent(cfg, DefaultCycleModel()); err == nil {
		t.Fatal("256-unit FPGA agent must be rejected")
	}
}

// TestAgentLifecycle: the FPGA agent follows Algorithm 1 — untrained until
// D fills, then loaded, PL phases counted in cycles.
func TestAgentLifecycle(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
	cfg.Seed = 5
	cfg.Epsilon2 = 1 // update every step for the test
	a := MustNewAgent(cfg, DefaultCycleModel())
	if a.Name() != "FPGA" {
		t.Errorf("Name = %q", a.Name())
	}
	s := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 8; i++ {
		if a.Trained() {
			t.Fatal("trained too early")
		}
		if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Trained() {
		t.Fatal("must be trained once D fills")
	}
	if a.Counters().Calls(timing.PhaseInitTrain) != 1 {
		t.Error("init_train counted once")
	}
	// Post-load updates count seq_train cycles.
	if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.1}); err != nil {
		t.Fatal(err)
	}
	if a.Counters().Calls(timing.PhaseSeqTrain) != 1 {
		t.Error("seq_train not counted")
	}
	if a.Counters().Work(timing.PhaseSeqTrain) < float64(a.Core().KernelCosts()[KernelSeqTrain]) {
		t.Error("seq_train work must include the core's cycles")
	}
}

// TestAgentStepDoesNotAllocate: with the core loaded and no observer, a
// training step — greedy SelectAction on the core plus an Observe that
// runs the target predicts and seq_train — allocates nothing.
func TestAgentStepDoesNotAllocate(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
	cfg.Seed = 5
	cfg.Epsilon1 = 1 // never explore: every action runs predict on the core
	cfg.Epsilon2 = 1 // every Observe runs seq_train
	a := MustNewAgent(cfg, DefaultCycleModel())
	s := []float64{0.1, 0.2, 0.3, 0.4}
	tr := replay.Transition{State: s, NextState: s, Reward: 0.1}
	for !a.Trained() {
		if err := a.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Action = a.SelectAction(s)
		if err := a.Observe(tr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("loaded agent step allocates %g objects, want 0", allocs)
	}
	if a.Counters().Calls(timing.PhaseSeqTrain) == 0 {
		t.Error("the measured steps ran no seq_train")
	}
}

// TestAgentPreloadSelectAndSyncDoNotAllocate: before the core is loaded a
// greedy SelectAction evaluates the float θ1 through qnet's Q kernel, and
// a loaded θ2 sync copies β into θ2's preallocated matrix, so with no
// observer neither allocates.
func TestAgentPreloadSelectAndSyncDoNotAllocate(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
	cfg.Seed = 5
	cfg.Epsilon1 = 1 // never explore: every action runs predict
	a := MustNewAgent(cfg, DefaultCycleModel())
	s := []float64{0.1, 0.2, 0.3, 0.4}
	if allocs := testing.AllocsPerRun(100, func() { a.SelectAction(s) }); allocs != 0 {
		t.Errorf("pre-load greedy SelectAction allocates %g objects, want 0", allocs)
	}
	if a.Trained() || a.Counters().Calls(timing.PhasePredictInit) == 0 {
		t.Fatal("the measured selections did not run the pre-load predict")
	}
	tr := replay.Transition{State: s, NextState: s, Reward: 0.1}
	for !a.Trained() {
		if err := a.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	before := a.Core().Cycles()
	if allocs := testing.AllocsPerRun(100, func() { a.EndEpisode(cfg.UpdateEvery) }); allocs != 0 {
		t.Errorf("loaded θ2 sync allocates %g objects, want 0", allocs)
	}
	if a.Core().Cycles() != before {
		t.Error("θ2 sync charged datapath cycles")
	}
}

// TestAgentLearnsCartPole: integration — the fixed-point agent improves on
// CartPole (moving average well above the random baseline of ~20 steps).
func TestAgentLearnsCartPole(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 32)
	cfg.Seed = 6
	a := MustNewAgent(cfg, DefaultCycleModel())
	e := env.NewShaped(env.NewCartPoleV0(106), env.RewardSurvival)
	best := 0.0
	window := make([]float64, 0, 2000)
	for ep := 1; ep <= 2000; ep++ {
		s := e.Reset()
		steps := 0
		for {
			act := a.SelectAction(s)
			ns, r, done := e.Step(act)
			if err := a.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
				t.Fatal(err)
			}
			s = ns
			steps++
			if done {
				break
			}
		}
		a.EndEpisode(ep)
		window = append(window, float64(steps))
		if len(window) >= 100 {
			sum := 0.0
			for _, v := range window[len(window)-100:] {
				sum += v
			}
			if avg := sum / 100; avg > best {
				best = avg
			}
		}
		if ep%300 == 0 && best < 100 {
			a.Reinitialize()
		}
	}
	if best < 60 {
		t.Errorf("best 100-episode average = %v; fixed-point agent failed to learn", best)
	}
}

func TestPhaseProfiles(t *testing.T) {
	p := PhaseProfiles()
	if p[timing.PhaseSeqTrain].Name != timing.FPGA125.Name {
		t.Error("seq_train must run on the PL profile")
	}
	if p[timing.PhaseInitTrain].Name != timing.CortexA9Init.Name {
		t.Error("init_train must run on the CPU profile")
	}
}

func TestBRAMWords(t *testing.T) {
	c := NewCore(5, 32, 1, DefaultCycleModel())
	// alpha 5*32 + bias 32 + beta 32 + P 1024 + h 32 + ph 32 + x 5.
	want := 160 + 32 + 32 + 1024 + 32 + 32 + 5
	if got := c.BRAMWords(); got != want {
		t.Errorf("BRAMWords = %d want %d", got, want)
	}
}

func TestCoreAccessorsAndUtilString(t *testing.T) {
	c := NewCore(5, 16, 1, DefaultCycleModel())
	if c.InputSize() != 5 || c.HiddenSize() != 16 || c.OutputSize() != 1 {
		t.Error("core accessors")
	}
	u := EstimateResources(5, 64)
	if s := u.String(); !strings.Contains(s, "64 units") || !strings.Contains(s, "BRAM") {
		t.Errorf("String = %q", s)
	}
	bad := EstimateResources(5, 256)
	if s := bad.String(); !strings.Contains(s, "does not fit") {
		t.Errorf("infeasible String = %q", s)
	}
}

func TestNewCoreInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCore(0, 8, 1, DefaultCycleModel())
}

func TestAgentGreedyActionAndAccessors(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
	cfg.Seed = 9
	a := MustNewAgent(cfg, DefaultCycleModel())
	s := []float64{0.1, 0.2, 0.3, 0.4}
	// Pre-load: greedy runs on the CPU path.
	if act := a.GreedyAction(s); act != 0 && act != 1 {
		t.Fatalf("greedy = %d", act)
	}
	for i := 0; i < 8; i++ {
		if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// Post-load: greedy runs on the core.
	if act := a.GreedyAction(s); act != 0 && act != 1 {
		t.Fatalf("greedy post-load = %d", act)
	}
	if a.GlobalStep() != 8 {
		t.Errorf("GlobalStep = %d", a.GlobalStep())
	}
	if a.Bus().TotalTransfers() != 1 {
		t.Errorf("bus transfers = %d, want 1 parameter load", a.Bus().TotalTransfers())
	}
	// Invalid configs error rather than panic in NewAgent.
	bad := cfg
	bad.ObservationSize = 0
	if _, err := NewAgent(bad, DefaultCycleModel()); err == nil {
		t.Error("bad dims must fail")
	}
	bad2 := cfg
	bad2.ExploreDecay = 2
	if _, err := NewAgent(bad2, DefaultCycleModel()); err == nil {
		t.Error("bad decay must fail")
	}
}

// TestPipelinedCycleModel: the II=1 MAC pipeline roughly halves seq_train
// cycles versus the non-pipelined model.
func TestPipelinedCycleModel(t *testing.T) {
	seq := AnalyticKernelCosts(5, 64, 1, DefaultCycleModel())[KernelSeqTrain]
	pipe := AnalyticKernelCosts(5, 64, 1, PipelinedCycleModel())[KernelSeqTrain]
	ratio := float64(seq) / float64(pipe)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("pipeline speedup = %vx, want ~2x", ratio)
	}
}
