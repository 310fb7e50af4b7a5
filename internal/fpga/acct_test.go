package fpga

import (
	"testing"

	"oselmrl/internal/fixed"
	"oselmrl/internal/mat"
)

// goldenCore builds the TestDatapathGolden parameter set.
func goldenCore() *Core {
	core := NewCore(3, 4, 1, DefaultCycleModel())
	alphaVals := [][]float64{
		{0.25, -0.5, 0.125, 0.75},
		{-0.25, 0.5, 0.375, -0.125},
		{0.0625, 0.3125, -0.4375, 0.15625},
	}
	for i, row := range alphaVals {
		for j, v := range row {
			core.Alpha.Set(i, j, fixed.FromFloat(v))
		}
	}
	for j, v := range []float64{0.1, -0.2, 0.3, 0.05} {
		core.Bias[j] = fixed.FromFloat(v)
	}
	for j, v := range []float64{0.5, -0.25, 0.75, 0.125} {
		core.Beta.Set(j, 0, fixed.FromFloat(v))
	}
	for i := 0; i < 4; i++ {
		core.P.Set(i, i, fixed.FromFloat(2))
	}
	return core
}

// TestGoldenVectorsWithAccounting re-runs the golden datapath sequence with
// accounting ON and asserts the exact same Q20 words and cycle count —
// accounting observes the datapath, it must never change it.
func TestGoldenVectorsWithAccounting(t *testing.T) {
	core := goldenCore()
	core.EnableAccounting()
	if !core.AccountingEnabled() {
		t.Fatal("EnableAccounting did not enable")
	}
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}

	pred0 := core.Predict(x)[0]
	if got, want := int32(pred0), int32(385537); got != want {
		t.Errorf("accounted predict = %d, want golden %d", got, want)
	}
	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
	wantBeta := []int32{716094, -262144, 925466, 440092}
	for j := 0; j < 4; j++ {
		if got := int32(core.Beta.At(j, 0)); got != wantBeta[j] {
			t.Errorf("accounted beta[%d] = %d, want golden %d", j, got, wantBeta[j])
		}
	}
	wantPDiag := []int32{1884338, 2097152, 1985333, 1544757}
	for i := 0; i < 4; i++ {
		if got := int32(core.P.At(i, i)); got != wantPDiag[i] {
			t.Errorf("accounted P[%d][%d] = %d, want golden %d", i, i, got, wantPDiag[i])
		}
	}
	if got := core.Cycles(); got != core.PredictCycles()+core.SeqTrainCycles() {
		t.Errorf("accounted cycles = %d, want %d", got, core.PredictCycles()+core.SeqTrainCycles())
	}

	// Ops landed in the right per-module accumulators.
	pa, sa := core.PredictAcct(), core.SeqTrainAcct()
	if pa.Ops == 0 || sa.Ops == 0 {
		t.Fatalf("per-module ops not recorded: predict=%d seq=%d", pa.Ops, sa.Ops)
	}
	// Predict: hidden (h·n muls + h·n adds) + output (m·h each) ops.
	if want := int64(2 * (4*3 + 1*4)); pa.Ops != want {
		t.Errorf("predict ops = %d, want %d", pa.Ops, want)
	}
	if pa.NaNs != 0 || sa.NaNs != 0 {
		t.Errorf("unexpected NaN counts: predict=%d seq=%d", pa.NaNs, sa.NaNs)
	}
}

// TestLoadFloatAccounting routes the DMA quantization boundary through the
// conversion accumulator, including NaN coercion.
func TestLoadFloatAccounting(t *testing.T) {
	core := NewCore(2, 2, 1, DefaultCycleModel())
	core.EnableAccounting()
	alpha := mat.Zeros(2, 2)
	alpha.Set(0, 0, 0.5)
	beta := mat.Zeros(2, 1)
	p := mat.Zeros(2, 2)
	p.Set(1, 1, 5000) // saturates the Q11.20 range
	core.LoadFloat(alpha, []float64{0.1, 0.2}, beta, p)

	ca := core.ConvAcct()
	if want := int64(2*2 + 2 + 2*1 + 2*2); ca.Ops != want {
		t.Errorf("conversion ops = %d, want %d", ca.Ops, want)
	}
	if ca.Saturations != 1 {
		t.Errorf("conversion saturations = %d, want 1", ca.Saturations)
	}
	if got := core.P.At(1, 1); got != fixed.Fixed(fixed.Max) {
		t.Errorf("saturated load = %d, want rail", int32(got))
	}
}

// TestPredictSilent pins the probe contract: same outputs as Predict, zero
// cycle-counter movement, zero accounting movement.
func TestPredictSilent(t *testing.T) {
	core := goldenCore()
	core.EnableAccounting()
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}

	loud := core.Predict(x)[0]
	cyclesBefore := core.Cycles()
	acctBefore := *core.PredictAcct()

	silent := core.PredictSilent(x)[0]
	if silent != loud {
		t.Errorf("PredictSilent = %d, Predict = %d", int32(silent), int32(loud))
	}
	if core.Cycles() != cyclesBefore {
		t.Errorf("PredictSilent moved cycles: %d -> %d", cyclesBefore, core.Cycles())
	}
	if got := *core.PredictAcct(); got != acctBefore {
		t.Errorf("PredictSilent moved accounting: %+v -> %+v", acctBefore, got)
	}
}

// TestDisabledAccountingPathDoesNotAllocate pins the disabled-path cost of
// the datapath with accounting off: Predict returns the core's reused
// output slice and SeqTrain works in core-owned scratch, so neither
// allocates.
func TestDisabledAccountingPathDoesNotAllocate(t *testing.T) {
	core := goldenCore()
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	tgt := []fixed.Fixed{fixed.FromFloat(0.9)}

	if allocs := testing.AllocsPerRun(100, func() {
		core.Predict(x)
	}); allocs != 0 {
		t.Errorf("disabled-accounting Predict allocates %g per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		core.SeqTrain(x, tgt)
	}); allocs != 0 {
		t.Errorf("disabled-accounting SeqTrain allocates %g per run, want 0", allocs)
	}
}

// BenchmarkSeqTrainAccounting quantifies the accounting overhead on the
// seq_train hot loop (compare the Disabled and Enabled variants).
func BenchmarkSeqTrainAccountingDisabled(b *testing.B) { benchSeqTrain(b, false) }
func BenchmarkSeqTrainAccountingEnabled(b *testing.B)  { benchSeqTrain(b, true) }

func benchSeqTrain(b *testing.B, acct bool) {
	core := goldenCore()
	if acct {
		core.EnableAccounting()
	}
	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}
	tgt := []fixed.Fixed{fixed.FromFloat(0.9)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.SeqTrain(x, tgt)
	}
}
