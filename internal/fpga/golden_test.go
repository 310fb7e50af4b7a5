package fpga

import (
	"testing"

	"oselmrl/internal/fixed"
)

// TestDatapathGolden locks the datapath bit-for-bit: a fixed parameter set
// and update sequence must produce exactly these Q20 words. Any change to
// the arithmetic (rounding mode, operation order, saturation) — intended
// or not — trips this test, which is the regression guarantee behind the
// "bit-accurate simulator" claim.
func TestDatapathGolden(t *testing.T) {
	core := NewCore(3, 4, 1, DefaultCycleModel())
	// Deterministic, hand-set parameters on the Q20 grid.
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
	// P = 2·I (the δ = 0.5 initial value for an empty Gram matrix).
	for i := 0; i < 4; i++ {
		core.P.Set(i, i, fixed.FromFloat(2))
	}

	x := []fixed.Fixed{fixed.FromFloat(0.5), fixed.FromFloat(-0.25), fixed.FromFloat(0.125)}

	// Golden values recorded from the reference implementation.
	pred0 := core.Predict(x)[0]
	if got, want := int32(pred0), int32(385537); got != want {
		t.Errorf("golden predict = %d, want %d (%.6f vs %.6f)",
			got, want, pred0.Float(), fixed.Fixed(want).Float())
	}

	core.SeqTrain(x, []fixed.Fixed{fixed.FromFloat(0.9)})
	// β after one update.
	wantBeta := []int32{716094, -262144, 925466, 440092}
	for j := 0; j < 4; j++ {
		if got := int32(core.Beta.At(j, 0)); got != wantBeta[j] {
			t.Errorf("golden beta[%d] = %d, want %d", j, got, wantBeta[j])
		}
	}
	// P diagonal after the rank-1 downdate.
	wantPDiag := []int32{1884338, 2097152, 1985333, 1544757}
	for i := 0; i < 4; i++ {
		if got := int32(core.P.At(i, i)); got != wantPDiag[i] {
			t.Errorf("golden P[%d][%d] = %d, want %d", i, i, got, wantPDiag[i])
		}
	}
	// Cycle count is part of the contract too.
	kc := core.KernelCosts()
	if got := core.Cycles(); got != kc[KernelPredict]+kc[KernelSeqTrain] {
		t.Errorf("golden cycles = %d", got)
	}
}

// TestCycleModelGolden pins the device cycle model to literal values: per
// design point and cycle model, the predict and seq_train totals and
// their per-ProfKernel split (hidden_pass, p_h, gain, downdate, residual,
// beta_update, overhead), read both from an executed, profiled core and
// from AnalyticKernelCosts. The values are literals because the core and
// AnalyticKernelCosts read one schedule: an edit to it moves both
// together, and only a fixed number shows the change.
func TestCycleModelGolden(t *testing.T) {
	type split = [NumProfKernels]int64
	for _, tc := range []struct {
		model        string
		dims         [3]int
		predict, seq int64
		predK, seqK  split
	}{
		{"default", [3]int{5, 32, 1}, 400, 4689, split{320, 0, 0, 0, 64, 0, 16}, split{320, 2048, 128, 2048, 65, 64, 16}},
		{"default", [3]int{5, 64, 1}, 784, 17521, split{640, 0, 0, 0, 128, 0, 16}, split{640, 8192, 224, 8192, 129, 128, 16}},
		{"default", [3]int{5, 128, 1}, 1552, 67761, split{1280, 0, 0, 0, 256, 0, 16}, split{1280, 32768, 416, 32768, 257, 256, 16}},
		{"default", [3]int{5, 192, 1}, 2320, 150769, split{1920, 0, 0, 0, 384, 0, 16}, split{1920, 73728, 608, 73728, 385, 384, 16}},
		{"default", [3]int{3, 6, 3}, 88, 321, split{36, 0, 0, 0, 36, 0, 16}, split{36, 72, 50, 72, 39, 36, 16}},
		{"pipelined", [3]int{5, 32, 1}, 208, 2353, split{160, 0, 0, 0, 32, 0, 16}, split{160, 1024, 64, 1024, 33, 32, 16}},
		{"pipelined", [3]int{5, 64, 1}, 400, 8753, split{320, 0, 0, 0, 64, 0, 16}, split{320, 4096, 96, 4096, 65, 64, 16}},
		{"pipelined", [3]int{5, 128, 1}, 784, 33841, split{640, 0, 0, 0, 128, 0, 16}, split{640, 16384, 160, 16384, 129, 128, 16}},
		{"pipelined", [3]int{5, 192, 1}, 1168, 75313, split{960, 0, 0, 0, 192, 0, 16}, split{960, 36864, 224, 36864, 193, 192, 16}},
		{"pipelined", [3]int{3, 6, 3}, 52, 183, split{18, 0, 0, 0, 18, 0, 16}, split{18, 36, 38, 36, 21, 18, 16}},
	} {
		model := DefaultCycleModel()
		if tc.model == "pipelined" {
			model = PipelinedCycleModel()
		}
		in, hid, out := tc.dims[0], tc.dims[1], tc.dims[2]
		if got := AnalyticKernelCosts(in, hid, out, model); got != (KernelCosts{tc.predict, tc.seq}) {
			t.Errorf("%s %v: AnalyticKernelCosts = %v, golden [%d %d]", tc.model, tc.dims, got, tc.predict, tc.seq)
		}
		c := NewCore(in, hid, out, model)
		if got := c.KernelCosts(); got != (KernelCosts{tc.predict, tc.seq}) {
			t.Errorf("%s %v: KernelCosts = %v, golden [%d %d]", tc.model, tc.dims, got, tc.predict, tc.seq)
		}
		c.EnableProfiling()
		x := profProbe(fixed.Q20, in)
		c.Predict(x)
		c.SeqTrain(x, make([]fixed.Fixed, out))
		if c.DenomGuardTrips() != 0 {
			t.Fatalf("%s %v: probe update tripped the guard", tc.model, tc.dims)
		}
		for _, ph := range []struct {
			ph    ProfPhase
			total int64
			split split
		}{{ProfPredict, tc.predict, tc.predK}, {ProfSeqTrain, tc.seq, tc.seqK}} {
			var got split
			for k := ProfKernel(0); k < NumProfKernels; k++ {
				got[k] = c.Prof().KernelCycles(ph.ph, k)
			}
			if got != ph.split || c.Prof().PhaseCycles(ph.ph) != ph.total {
				t.Errorf("%s %v %v: executed %v (total %d), golden %v (total %d)",
					tc.model, tc.dims, ph.ph, got, c.Prof().PhaseCycles(ph.ph), ph.split, ph.total)
			}
		}
	}
}
