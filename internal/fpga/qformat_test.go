package fpga

import (
	"maps"
	"testing"

	"oselmrl/internal/fixed"
	"oselmrl/internal/mat"
	"oselmrl/internal/obs"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

// goldenCoreQ is goldenCore built through the format-parameterized
// constructor.
func goldenCoreQ(q fixed.QFormat) *Core {
	core := NewCoreQ(3, 4, 1, DefaultCycleModel(), q)
	alphaVals := [][]float64{
		{0.25, -0.5, 0.125, 0.75},
		{-0.25, 0.5, 0.375, -0.125},
		{0.0625, 0.3125, -0.4375, 0.15625},
	}
	for i, row := range alphaVals {
		for j, v := range row {
			core.Alpha.Set(i, j, q.FromFloat(v))
		}
	}
	for j, v := range []float64{0.1, -0.2, 0.3, 0.05} {
		core.Bias[j] = q.FromFloat(v)
	}
	for j, v := range []float64{0.5, -0.25, 0.75, 0.125} {
		core.Beta.Set(j, 0, q.FromFloat(v))
	}
	for i := 0; i < 4; i++ {
		core.P.Set(i, i, q.FromFloat(2))
	}
	return core
}

// TestGoldenQ20ViaNewCoreQ pins the refactor's central guarantee: the
// parameterized constructor at Q20 (explicit or zero value) reproduces the
// pre-refactor golden vectors byte for byte.
func TestGoldenQ20ViaNewCoreQ(t *testing.T) {
	for _, q := range []fixed.QFormat{{}, fixed.Q20} {
		core := goldenCoreQ(q)
		if core.Format() != fixed.Q20 {
			t.Fatalf("Format() = %v, want Q20", core.Format())
		}
		x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
		if got, want := int32(core.Predict(x)[0]), int32(385537); got != want {
			t.Errorf("%v: predict = %d, want golden %d", q, got, want)
		}
		core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
		wantBeta := []int32{716094, -262144, 925466, 440092}
		for j := 0; j < 4; j++ {
			if got := int32(core.Beta.At(j, 0)); got != wantBeta[j] {
				t.Errorf("%v: beta[%d] = %d, want golden %d", q, j, got, wantBeta[j])
			}
		}
		wantPDiag := []int32{1884338, 2097152, 1985333, 1544757}
		for i := 0; i < 4; i++ {
			if got := int32(core.P.At(i, i)); got != wantPDiag[i] {
				t.Errorf("%v: P[%d][%d] = %d, want golden %d", q, i, i, got, wantPDiag[i])
			}
		}
		kc := core.KernelCosts()
		if got := core.Cycles(); got != kc[KernelPredict]+kc[KernelSeqTrain] {
			t.Errorf("%v: cycles = %d", q, got)
		}
	}
}

// TestFormatInvariants asserts what the format must NOT change: storage
// words, the BRAM inventory's word widths and the Table 3 resource
// estimate are identical at every sweep format. (The cycle schedule takes
// no format at all.)
func TestFormatInvariants(t *testing.T) {
	ref := NewCore(5, 32, 1, DefaultCycleModel())
	for _, q := range []fixed.QFormat{fixed.Q16, fixed.Q20, fixed.Q24} {
		c := NewCoreQ(5, 32, 1, DefaultCycleModel(), q)
		if c.BRAMWords() != ref.BRAMWords() {
			t.Errorf("%v: BRAMWords = %d, want %d", q, c.BRAMWords(), ref.BRAMWords())
		}
	}
	for _, a := range CoreArrays(5, 32) {
		if a.WordBits != 32 {
			t.Errorf("array %s: WordBits = %d, want 32 (storage is format-invariant)", a.Name, a.WordBits)
		}
	}
	// EstimateResources takes no format at all — Table 3 cannot vary.
	r := EstimateResources(5, 32)
	if !r.Feasible {
		t.Error("32-unit design must fit")
	}
}

// TestLoadFloatPerFormatPrecision: LoadFloat under each format quantizes
// within half an LSB of that format's grid.
func TestLoadFloatPerFormatPrecision(t *testing.T) {
	r := rng.New(7)
	alpha := mat.Zeros(3, 8)
	beta := mat.Zeros(8, 1)
	p := mat.Zeros(8, 8)
	for _, m := range []*mat.Dense{alpha, beta, p} {
		d := m.RawData()
		for i := range d {
			d[i] = r.Uniform(-2, 2)
		}
	}
	bias := make([]float64, 8)
	for i := range bias {
		bias[i] = r.Uniform(-1, 1)
	}
	for _, q := range []fixed.QFormat{fixed.Q16, fixed.Q20, fixed.Q24} {
		c := NewCoreQ(3, 8, 1, DefaultCycleModel(), q)
		c.LoadFloat(alpha, bias, beta, p)
		half := q.Resolution() / 2
		if got := c.Alpha.MaxAbsError(alpha); got > half {
			t.Errorf("%v: alpha error %g > %g", q, got, half)
		}
		if got := c.P.MaxAbsError(p); got > half {
			t.Errorf("%v: P error %g > %g", q, got, half)
		}
	}
}

// corruptGoldenP returns the golden core with a poisoned P: a strongly
// negative diagonal drives the Eq. 5 denominator 1 + h·P·hᵀ far below the
// 0.5 guard floor.
func corruptGoldenP() *Core {
	core := goldenCore()
	for i := 0; i < 4; i++ {
		core.P.Set(i, i, fixed.FromFloat(-100))
	}
	return core
}

// TestDenomGuardRejectsCorruptP is the satellite regression test: feeding
// a corrupted P into seq_train must trip the denominator guard, leave β
// and P untouched, and never reach the saturating reciprocal.
func TestDenomGuardRejectsCorruptP(t *testing.T) {
	core := corruptGoldenP()
	core.EnableAccounting()
	betaBefore := core.Beta.Clone()
	pBefore := core.P.Clone()

	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})

	if got := core.DenomGuardTrips(); got != 1 {
		t.Fatalf("DenomGuardTrips = %d, want 1", got)
	}
	for j := 0; j < 4; j++ {
		if core.Beta.At(j, 0) != betaBefore.At(j, 0) {
			t.Errorf("beta[%d] changed by a rejected update", j)
		}
		for i := 0; i < 4; i++ {
			if core.P.At(i, j) != pBefore.At(i, j) {
				t.Errorf("P[%d][%d] changed by a rejected update", i, j)
			}
		}
	}
	// The guard fires before the divide: without it, 1/denom would have
	// been accounted (and for denom→0⁻ would pin the negative rail).
	// The ops that did run are the hidden layer, ph and denom MACs only.
	if sat := core.SeqTrainAcct().Saturations; sat != 0 {
		t.Errorf("rejected update recorded %d saturations; guard must fire before the divide", sat)
	}
	// A healthy update on the same inputs (fresh golden core) must not trip.
	healthy := goldenCore()
	healthy.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
	if healthy.DenomGuardTrips() != 0 {
		t.Error("healthy golden update tripped the guard")
	}
}

// recordSink captures emitted events for assertions. An event's data is
// only valid during Write, so it keeps a copy.
type recordSink struct{ events []obs.Event }

func (s *recordSink) Write(ev *obs.Event) error {
	kept := *ev
	kept.Data = maps.Clone(ev.Data)
	s.events = append(s.events, kept)
	return nil
}
func (s *recordSink) Close() error { return nil }

// TestAgentDenomGuardAlert drives the guard through the agent: a poisoned
// P during online updates must surface as a fixed_denom_guard_trips
// counter and a numeric_alert event at the episode flush.
func TestAgentDenomGuardAlert(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
	cfg.Seed = 5
	cfg.Epsilon2 = 1 // update every step
	a := MustNewAgent(cfg, DefaultCycleModel())
	sink := &recordSink{}
	emitter := obs.NewEmitter(sink)
	a.SetObserver(emitter)

	s := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 8; i++ {
		if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Trained() {
		t.Fatal("agent must be trained once D fills")
	}
	// Poison the loaded P and push one more update through Algorithm 1.
	for i := 0; i < 8; i++ {
		a.Core().P.Set(i, i, fixed.FromFloat(-100))
	}
	if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.1}); err != nil {
		t.Fatal(err)
	}
	if got := a.Core().DenomGuardTrips(); got != 1 {
		t.Fatalf("DenomGuardTrips = %d, want 1", got)
	}
	a.EndEpisode(1)

	snap := emitter.Metrics().Snapshot()
	if got := snap.Counters[obs.MetricFixedDenomGuard]; got != 1 {
		t.Errorf("counter %s = %d, want 1", obs.MetricFixedDenomGuard, got)
	}
	found := false
	for _, ev := range sink.events {
		if ev.Type == obs.EventNumericAlert && ev.Labels["rule"] == "seq_train_denom_guard" {
			found = true
		}
	}
	if !found {
		t.Error("no numeric_alert event with rule seq_train_denom_guard emitted")
	}

	// A second tripped update increments the counter but must not emit a
	// second alert (first-trip-only, like the watchdog's first-violation
	// alerts).
	if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.1}); err != nil {
		t.Fatal(err)
	}
	a.EndEpisode(2)
	alerts := 0
	for _, ev := range sink.events {
		if ev.Type == obs.EventNumericAlert {
			alerts++
		}
	}
	if alerts != 1 {
		t.Errorf("numeric_alert emitted %d times, want 1", alerts)
	}
	if got := emitter.Metrics().Snapshot().Counters[obs.MetricFixedDenomGuard]; got != 2 {
		t.Errorf("counter after second trip = %d, want 2", got)
	}
}

// TestAgentFormatThreading checks NewAgentQ wires the format end to end:
// the core, the θ2 matrix and the Format accessor all agree, and learning
// still runs at a non-default format.
func TestAgentFormatThreading(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
	cfg.Seed = 5
	cfg.Epsilon2 = 1
	a, err := NewAgentQ(cfg, DefaultCycleModel(), fixed.Q16)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != fixed.Q16 {
		t.Fatalf("Format = %v, want Q16", a.Format())
	}
	if a.Core().Format() != fixed.Q16 {
		t.Fatalf("core Format = %v, want Q16", a.Core().Format())
	}
	s := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < 9; i++ {
		if err := a.Observe(replay.Transition{State: s, NextState: s, Reward: 0.1}); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Trained() {
		t.Fatal("Q16 agent must train")
	}
	// Reinitialize must preserve the format (fresh core, same context).
	a.Reinitialize()
	if a.Core().Format() != fixed.Q16 {
		t.Error("Reinitialize dropped the format")
	}
}
