package timing

import (
	"math"
	"strings"
	"testing"
)

func TestCountersAccumulate(t *testing.T) {
	c := NewCounters()
	c.Add(PhaseSeqTrain, 100)
	c.Add(PhaseSeqTrain, 50)
	c.AddN(PhasePredictSeq, 4, 400)
	if c.Calls(PhaseSeqTrain) != 2 || c.Work(PhaseSeqTrain) != 150 {
		t.Errorf("seq_train calls=%d work=%v", c.Calls(PhaseSeqTrain), c.Work(PhaseSeqTrain))
	}
	if c.Calls(PhasePredictSeq) != 4 || c.Work(PhasePredictSeq) != 400 {
		t.Errorf("predict_seq calls=%d work=%v", c.Calls(PhasePredictSeq), c.Work(PhasePredictSeq))
	}
	c.Reset()
	if c.Calls(PhaseSeqTrain) != 0 {
		t.Error("Reset failed")
	}
}

func TestCountersMerge(t *testing.T) {
	a, b := NewCounters(), NewCounters()
	a.Add(PhaseInitTrain, 10)
	b.Add(PhaseInitTrain, 20)
	b.Add(PhaseTrainDQN, 5)
	a.Merge(b)
	if a.Work(PhaseInitTrain) != 30 || a.Calls(PhaseInitTrain) != 2 {
		t.Error("Merge init_train")
	}
	if a.Work(PhaseTrainDQN) != 5 {
		t.Error("Merge train_DQN")
	}
}

func TestProfileSeconds(t *testing.T) {
	p := Profile{WorkUnitsPerSec: 1e6, CallOverheadSec: 1e-3}
	// 1e6 units = 1s compute + 10 calls * 1ms = 1.01s.
	if got := p.Seconds(PhasePredictSeq, 10, 1e6); math.Abs(got-1.01) > 1e-12 {
		t.Errorf("Seconds = %v", got)
	}
	// Phase op factors multiply the per-call overhead.
	p.PhaseOps = map[Phase]float64{PhaseSeqTrain: 5}
	if got := p.Seconds(PhaseSeqTrain, 10, 1e6); math.Abs(got-1.05) > 1e-12 {
		t.Errorf("Seconds with PhaseOps = %v", got)
	}
	// Unlisted phases keep factor 1.
	if got := p.Seconds(PhaseTrainDQN, 10, 1e6); math.Abs(got-1.01) > 1e-12 {
		t.Errorf("Seconds unlisted phase = %v", got)
	}
}

func TestModelBreakdown(t *testing.T) {
	c := NewCounters()
	c.Add(PhaseSeqTrain, 1e8)
	c.Add(PhasePredictSeq, 1e7)
	b := Model(c, Profile{WorkUnitsPerSec: 1e8, CallOverheadSec: 0})
	if math.Abs(b[PhaseSeqTrain]-1) > 1e-12 {
		t.Errorf("seq_train = %v", b[PhaseSeqTrain])
	}
	if math.Abs(b.Total()-1.1) > 1e-12 {
		t.Errorf("total = %v", b.Total())
	}
	// Phases with zero calls are omitted.
	if _, ok := b[PhaseTrainDQN]; ok {
		t.Error("zero-call phase must be absent")
	}
}

// TestBreakdownTotalDeterministic: Total is the phase-order sum, bit for
// bit, on every call. 0.1 + 0.2 + 0.3 rounds differently in different
// orders, so a sum in map-iteration order would return two values.
func TestBreakdownTotalDeterministic(t *testing.T) {
	b := Breakdown{PhaseSeqTrain: 0.1, PhasePredictSeq: 0.2, PhaseInitTrain: 0.3}
	var want float64
	for _, p := range AllPhases {
		want += b[p]
	}
	for i := 0; i < 200; i++ {
		if got := b.Total(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: Total() = %v, phase-order sum %v", i, got, want)
		}
	}
}

func TestModelMixed(t *testing.T) {
	c := NewCounters()
	c.Add(PhaseSeqTrain, 125e6)  // cycles
	c.Add(PhaseInitTrain, 1.1e8) // flops
	per := map[Phase]Profile{PhaseSeqTrain: FPGA125}
	b := ModelMixed(c, per, CortexA9PyTorch)
	// 125e6 cycles at 125MHz = 1s (+ tiny overhead).
	if b[PhaseSeqTrain] < 1 || b[PhaseSeqTrain] > 1.001 {
		t.Errorf("seq_train on fpga = %v", b[PhaseSeqTrain])
	}
	// 1.1e8 flops at 1.1e8/s = 1s (+ 30-op dispatch overhead).
	if b[PhaseInitTrain] < 1 || b[PhaseInitTrain] > 1.01 {
		t.Errorf("init_train on cpu = %v", b[PhaseInitTrain])
	}
}

func TestBreakdownFormat(t *testing.T) {
	b := Breakdown{PhaseSeqTrain: 1.5, PhasePredictSeq: 0.5}
	s := b.Format()
	if !strings.Contains(s, "seq_train") || !strings.Contains(s, "total") {
		t.Errorf("Format output missing fields:\n%s", s)
	}
}

func TestOSELMDimsFlops(t *testing.T) {
	d := OSELMDims{In: 5, Hidden: 64, Out: 1}
	// Predict: 2*5*64 + 64 + 2*64 = 832.
	if got := d.PredictFlops(); got != 832 {
		t.Errorf("PredictFlops = %v", got)
	}
	// SeqTrain is dominated by the Ñ² terms; verify it is ~5Ñ².
	st := d.SeqTrainFlops()
	if st < 5*64*64 || st > 7*64*64 {
		t.Errorf("SeqTrainFlops = %v outside the expected Ñ² regime", st)
	}
	// InitTrain is cubic: doubling Ñ multiplies the inverse term by ~8.
	small := OSELMDims{In: 5, Hidden: 32, Out: 1}.InitTrainFlops(32)
	large := OSELMDims{In: 5, Hidden: 64, Out: 1}.InitTrainFlops(64)
	if ratio := large / small; ratio < 6 || ratio > 10 {
		t.Errorf("InitTrain scaling ratio = %v, want ~8 (cubic)", ratio)
	}
	if d.ELMBatchTrainFlops(64) != d.InitTrainFlops(64) {
		t.Error("ELM batch train must cost the same as init train")
	}
}

func TestDQNDimsFlops(t *testing.T) {
	d := DQNDims{In: 4, Hidden: 64, Actions: 2}
	p1 := d.Predict1Flops()
	p32 := d.PredictBatchFlops(32)
	if math.Abs(p32-32*p1) > 1e-9 {
		t.Errorf("batch-32 forward should be 32x batch-1: %v vs %v", p32, 32*p1)
	}
	// Training costs more than forward alone.
	if d.TrainFlops(32) <= p32 {
		t.Error("train must cost more than forward")
	}
}

// The seq_train cost grows quadratically in Ñ — the paper's §4.4
// observation that matrix products RÑ×Ñ·RÑ×Ñ dominate.
func TestSeqTrainQuadraticGrowth(t *testing.T) {
	f32 := OSELMDims{In: 5, Hidden: 32, Out: 1}.SeqTrainFlops()
	f64 := OSELMDims{In: 5, Hidden: 64, Out: 1}.SeqTrainFlops()
	f128 := OSELMDims{In: 5, Hidden: 128, Out: 1}.SeqTrainFlops()
	r1 := f64 / f32
	r2 := f128 / f64
	if r1 < 3 || r1 > 4.5 || r2 < 3 || r2 > 4.5 {
		t.Errorf("growth ratios %v, %v — want ~4 (quadratic)", r1, r2)
	}
}

func TestAllPhasesListed(t *testing.T) {
	if len(AllPhases) != 7 {
		t.Fatalf("the paper's Figure 5 has 7 phases, got %d", len(AllPhases))
	}
	want := map[Phase]bool{
		PhaseSeqTrain: true, PhasePredictSeq: true, PhaseInitTrain: true,
		PhasePredictInit: true, PhaseTrainDQN: true, PhasePredict1: true,
		PhasePredict32: true,
	}
	for _, p := range AllPhases {
		if !want[p] {
			t.Errorf("unexpected phase %q", p)
		}
	}
}
