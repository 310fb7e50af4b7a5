package oselm

import (
	"errors"
	"maps"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/mat"
	"oselmrl/internal/obs"
	"oselmrl/internal/rng"
)

func newBase(seed uint64, in, hidden, out int) *elm.Model {
	return elm.NewModel(in, hidden, out, activation.Sigmoid, rng.New(seed), elm.DefaultOptions())
}

func randomData(seed uint64, k, in, out int) (*mat.Dense, *mat.Dense) {
	r := rng.New(seed)
	x := mat.Zeros(k, in)
	t := mat.Zeros(k, out)
	r.FillUniform(x.RawData(), -1, 1)
	r.FillUniform(t.RawData(), -1, 1)
	return x, t
}

func TestSeqBeforeInitErrors(t *testing.T) {
	m := New(newBase(1, 2, 8, 1), 0.1)
	if err := m.SeqTrainOne([]float64{1, 2}, []float64{0}); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("expected ErrNotInitialized, got %v", err)
	}
	x, tt := randomData(2, 3, 2, 1)
	if err := m.SeqTrainBatch(x, tt); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("expected ErrNotInitialized, got %v", err)
	}
}

func TestInitTrainMatchesDirectSolve(t *testing.T) {
	base := newBase(3, 3, 12, 1)
	m := New(base, 0.5)
	x, tt := randomData(4, 20, 3, 1)
	if err := m.InitTrain(x, tt); err != nil {
		t.Fatal(err)
	}
	want, err := SolveDirect(base, x, tt, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(m.Beta, want, 1e-8) {
		t.Errorf("init beta != direct solve; max diff %v", mat.Sub(m.Beta, want).MaxAbs())
	}
	if !m.Initialized() {
		t.Error("Initialized must be true")
	}
}

// The central OS-ELM correctness property (paper Eq. 5-8): after an initial
// chunk and a stream of rank-1 sequential updates, β equals the one-shot
// regularized least-squares solution over ALL the data.
func TestSequentialEqualsBatchSolution(t *testing.T) {
	base := newBase(5, 3, 15, 2)
	m := New(base, 0.3)

	xInit, tInit := randomData(6, 20, 3, 2)
	if err := m.InitTrain(xInit, tInit); err != nil {
		t.Fatal(err)
	}
	xSeq, tSeq := randomData(7, 40, 3, 2)
	for i := 0; i < xSeq.Rows(); i++ {
		if err := m.SeqTrainOne(xSeq.Row(i), tSeq.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Ground truth over the concatenated dataset.
	allX := mat.Zeros(60, 3)
	allT := mat.Zeros(60, 2)
	for i := 0; i < 20; i++ {
		allX.SetRow(i, xInit.Row(i))
		allT.SetRow(i, tInit.Row(i))
	}
	for i := 0; i < 40; i++ {
		allX.SetRow(20+i, xSeq.Row(i))
		allT.SetRow(20+i, tSeq.Row(i))
	}
	want, err := SolveDirect(base, allX, allT, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(m.Beta, want, 1e-6) {
		t.Errorf("sequential != batch solution; max diff %v", mat.Sub(m.Beta, want).MaxAbs())
	}
	if m.Updates() != 40 {
		t.Errorf("Updates = %d", m.Updates())
	}
}

// Rank-k sequential updates must agree with rank-1 updates on the same data.
func TestBatchUpdateEqualsRank1Stream(t *testing.T) {
	mk := func() *Model {
		base := newBase(8, 2, 10, 1)
		m := New(base, 0.2)
		xi, ti := randomData(9, 15, 2, 1)
		if err := m.InitTrain(xi, ti); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := mk()
	m2 := mk()
	x, tt := randomData(10, 8, 2, 1)
	for i := 0; i < 8; i++ {
		if err := m1.SeqTrainOne(x.Row(i), tt.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.SeqTrainBatch(x, tt); err != nil {
		t.Fatal(err)
	}
	if !mat.Equal(m1.Beta, m2.Beta, 1e-7) {
		t.Errorf("rank-1 stream and rank-8 batch disagree; max diff %v",
			mat.Sub(m1.Beta, m2.Beta).MaxAbs())
	}
	if !mat.Equal(m1.P, m2.P, 1e-7) {
		t.Error("P matrices disagree between rank-1 and rank-k paths")
	}
}

func TestInitTrainSingularWithoutDelta(t *testing.T) {
	// A chunk smaller than the hidden size makes H^T H rank-deficient; with
	// delta == 0 the jitter fallback must still produce a finite model.
	base := newBase(11, 2, 20, 1)
	m := New(base, 0)
	x, tt := randomData(12, 5, 2, 1)
	if err := m.InitTrain(x, tt); err != nil {
		t.Fatalf("jitter fallback failed: %v", err)
	}
	if m.Beta.MaxAbs() == 0 || math.IsNaN(m.Beta.MaxAbs()) {
		t.Error("beta must be finite and nonzero")
	}
}

func TestInitTrainShapeErrors(t *testing.T) {
	m := New(newBase(13, 3, 8, 1), 0.1)
	x := mat.Zeros(5, 3)
	if err := m.InitTrain(x, mat.Zeros(4, 1)); err == nil {
		t.Error("expected row-mismatch error")
	}
	if err := m.InitTrain(x, mat.Zeros(5, 3)); err == nil {
		t.Error("expected output-width error")
	}
}

func TestSeqTrainOneLengthError(t *testing.T) {
	m := New(newBase(14, 2, 8, 1), 0.1)
	x, tt := randomData(15, 10, 2, 1)
	if err := m.InitTrain(x, tt); err != nil {
		t.Fatal(err)
	}
	if err := m.SeqTrainOne([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("expected target-length error")
	}
}

// P must stay symmetric positive-definite through many updates — the
// numerical invariant the FPGA core also relies on.
func TestPStaysSymmetricPositive(t *testing.T) {
	base := newBase(16, 3, 12, 1)
	m := New(base, 0.5)
	xi, ti := randomData(17, 15, 3, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	r := rng.New(18)
	for i := 0; i < 2000; i++ {
		x := make([]float64, 3)
		r.FillUniform(x, -1, 1)
		if err := m.SeqTrainOne(x, []float64{r.Uniform(-1, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	n := m.P.Rows()
	for i := 0; i < n; i++ {
		if m.P.At(i, i) <= 0 {
			t.Fatalf("P diagonal %d = %v not positive", i, m.P.At(i, i))
		}
		for j := i + 1; j < n; j++ {
			if math.Abs(m.P.At(i, j)-m.P.At(j, i)) > 1e-8 {
				t.Fatalf("P asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// The gain denominator 1 + hPh must stay >= some positive floor: P is PSD
// so hPh >= 0 in exact arithmetic.
func TestGainDenominatorPositive(t *testing.T) {
	base := newBase(19, 2, 10, 1)
	m := New(base, 1.0)
	xi, ti := randomData(20, 12, 2, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	for i := 0; i < 500; i++ {
		x := make([]float64, 2)
		r.FillUniform(x, -2, 2)
		if err := m.SeqTrainOne(x, []float64{r.Uniform(-1, 1)}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
}

// Sequential training must reduce the prediction error on the point it just
// trained on (RLS moves toward the target).
func TestSeqTrainReducesPointError(t *testing.T) {
	base := newBase(22, 2, 10, 1)
	m := New(base, 0.5)
	xi, ti := randomData(23, 12, 2, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.4}
	target := 0.8
	before := math.Abs(m.PredictOne(x)[0] - target)
	if err := m.SeqTrainOne(x, []float64{target}); err != nil {
		t.Fatal(err)
	}
	after := math.Abs(m.PredictOne(x)[0] - target)
	if after >= before {
		t.Errorf("error did not decrease: %v -> %v", before, after)
	}
}

func TestCloneAndCopyState(t *testing.T) {
	base := newBase(24, 2, 8, 1)
	m := New(base, 0.5)
	xi, ti := randomData(25, 10, 2, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if !mat.Equal(m.P, c.P, 0) || !mat.Equal(m.Beta, c.Beta, 0) {
		t.Fatal("clone state mismatch")
	}
	// Diverge the clone, then copy back.
	if err := c.SeqTrainOne([]float64{0.1, 0.2}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if mat.Equal(m.Beta, c.Beta, 1e-15) {
		t.Fatal("clone should have diverged")
	}
	m.CopyStateFrom(c)
	if !mat.Equal(m.Beta, c.Beta, 0) || !mat.Equal(m.P, c.P, 0) {
		t.Fatal("CopyStateFrom mismatch")
	}
}

// Property: for arbitrary seeds, the sequential solution converges to the
// direct regularized least-squares solution.
func TestPropertySequentialConvergence(t *testing.T) {
	f := func(seed uint64) bool {
		base := elm.NewModel(2, 8, 1, activation.Sigmoid, rng.New(seed), elm.DefaultOptions())
		m := New(base, 0.4)
		r := rng.New(seed + 1)
		k1, k2 := 10, 15
		x := mat.Zeros(k1+k2, 2)
		tt := mat.Zeros(k1+k2, 1)
		r.FillUniform(x.RawData(), -1, 1)
		r.FillUniform(tt.RawData(), -1, 1)
		xi := mat.Zeros(k1, 2)
		ti := mat.Zeros(k1, 1)
		for i := 0; i < k1; i++ {
			xi.SetRow(i, x.Row(i))
			ti.SetRow(i, tt.Row(i))
		}
		if err := m.InitTrain(xi, ti); err != nil {
			return false
		}
		for i := k1; i < k1+k2; i++ {
			if err := m.SeqTrainOne(x.Row(i), tt.Row(i)); err != nil {
				return false
			}
		}
		want, err := SolveDirect(base, x, tt, 0.4)
		if err != nil {
			return false
		}
		return mat.Equal(m.Beta, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// OS-ELM as an online regressor: learn sin(x) incrementally — the
// supervised substrate use-case (Tsukada et al.).
func TestOnlineRegressionSine(t *testing.T) {
	base := elm.NewModel(1, 40, 1, activation.Sigmoid, rng.New(30), elm.DefaultOptions())
	m := New(base, 0.01)
	r := rng.New(31)
	k := 40
	xi := mat.Zeros(k, 1)
	ti := mat.Zeros(k, 1)
	for i := 0; i < k; i++ {
		v := r.Uniform(-math.Pi, math.Pi)
		xi.Set(i, 0, v)
		ti.Set(i, 0, math.Sin(v))
	}
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		v := r.Uniform(-math.Pi, math.Pi)
		if err := m.SeqTrainOne([]float64{v}, []float64{math.Sin(v)}); err != nil {
			t.Fatal(err)
		}
	}
	var worst float64
	for i := 0; i < 50; i++ {
		v := r.Uniform(-math.Pi, math.Pi)
		if d := math.Abs(m.PredictOne([]float64{v})[0] - math.Sin(v)); d > worst {
			worst = d
		}
	}
	if worst > 0.08 {
		t.Errorf("online sine regression max error %v", worst)
	}
}

func TestRestore(t *testing.T) {
	base := newBase(60, 3, 10, 1)
	// Valid restore with P.
	p := mat.Eye(10)
	m, err := Restore(base, p, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Initialized() || m.Updates() != 7 || m.Delta != 0.5 {
		t.Error("restored state wrong")
	}
	// Restored model accepts sequential updates.
	if err := m.SeqTrainOne([]float64{1, 2, 3}, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	// Nil P restores untrained.
	m2, err := Restore(newBase(61, 3, 10, 1), nil, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Initialized() {
		t.Error("nil P must restore untrained")
	}
	// Dimension mismatch rejected.
	if _, err := Restore(newBase(62, 3, 10, 1), mat.Eye(5), 0.5, 0); err == nil {
		t.Error("mismatched P must be rejected")
	}
}

func TestSeqTrainBatchShapeErrors(t *testing.T) {
	base := newBase(63, 3, 8, 1)
	m := New(base, 0.5)
	xi, ti := randomData(64, 10, 3, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	if err := m.SeqTrainBatch(mat.Zeros(4, 3), mat.Zeros(5, 1)); err == nil {
		t.Error("row mismatch must fail")
	}
	if err := m.SeqTrainBatch(mat.Zeros(4, 3), mat.Zeros(4, 2)); err == nil {
		t.Error("output-width mismatch must fail")
	}
}

func TestCopyStateFromNilAndResize(t *testing.T) {
	base := newBase(65, 2, 6, 1)
	src := New(base, 0.3)
	xi, ti := randomData(66, 8, 2, 1)
	if err := src.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	// Destination with nil P: CopyStateFrom must clone it.
	dst := New(newBase(65, 2, 6, 1), 0.3)
	dst.CopyStateFrom(src)
	if !dst.Initialized() || !mat.Equal(dst.P, src.P, 0) {
		t.Fatal("CopyStateFrom with nil destination P failed")
	}
	// Mutating the copy must not touch the source.
	dst.P.Set(0, 0, 99)
	if src.P.At(0, 0) == 99 {
		t.Error("P aliased between models")
	}
}

// The rank-1 sequential update is the system's hot path (it runs on every
// random-update step for the entire training); it must not allocate.
func TestSeqTrainOneDoesNotAllocate(t *testing.T) {
	base := newBase(70, 5, 32, 1)
	m := New(base, 0.5)
	xi, ti := randomData(71, 32, 5, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, -0.4, 1}
	y := []float64{0.5}
	if err := m.SeqTrainOne(x, y); err != nil { // warm the scratch buffers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.SeqTrainOne(x, y); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SeqTrainOne allocates %v objects per call; the hot path must be allocation-free", allocs)
	}
}

// Property: for any healthy data, a rank-k SeqTrainBatch agrees with k
// sequential rank-1 updates to tolerance, and the conditioning guard never
// fires. Runs the equivalence across many random draws and batch sizes
// (the guard sits in front of the update, so this also proves the guard
// does not reject well-conditioned updates).
func TestPropertyBatchEqualsRank1Stream(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		k := int(seed%10) + 1
		base1 := newBase(40+seed, 3, 12, 2)
		m1 := New(base1, 0.3)
		m2 := New(base1.Clone(), 0.3)
		xi, ti := randomData(60+seed, 18, 3, 2)
		if err := m1.InitTrain(xi, ti); err != nil {
			t.Fatal(err)
		}
		if err := m2.InitTrain(xi, ti); err != nil {
			t.Fatal(err)
		}
		x, tt := randomData(80+seed, k, 3, 2)
		for i := 0; i < k; i++ {
			if err := m1.SeqTrainOne(x.Row(i), tt.Row(i)); err != nil {
				t.Fatalf("seed %d rank-1 %d: %v", seed, i, err)
			}
		}
		if err := m2.SeqTrainBatch(x, tt); err != nil {
			t.Fatalf("seed %d rank-%d: %v", seed, k, err)
		}
		if !mat.Equal(m1.Beta, m2.Beta, 1e-6) {
			t.Errorf("seed %d k=%d: beta diff %v", seed, k,
				mat.Sub(m1.Beta, m2.Beta).MaxAbs())
		}
		if !mat.Equal(m1.P, m2.P, 1e-6) {
			t.Errorf("seed %d k=%d: P diff %v", seed, k,
				mat.Sub(m1.P, m2.P).MaxAbs())
		}
		if m2.GuardTrips() != 0 {
			t.Errorf("seed %d: guard tripped on healthy data", seed)
		}
	}
}

// guardSink captures emitted events for the guard regression test. An
// event's data is only valid during Write, so it keeps a copy.
type guardSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *guardSink) Write(ev *obs.Event) error {
	kept := *ev
	kept.Data = maps.Clone(ev.Data)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, kept)
	return nil
}
func (s *guardSink) Close() error { return nil }

// Regression for the PR 8 bugfix: a corrupted (non-positive-definite) P
// must make SeqTrainBatch REJECT the rank-k update — old P/β preserved,
// ErrIllConditioned returned, guard counter bumped, one numeric_alert
// emitted — instead of silently pushing the corruption through Eq. 5.
// Mirrors the PR 5 rank-1 corrupt-P test for the fixed-point core.
func TestSeqTrainBatchGuardRejectsCorruptP(t *testing.T) {
	base := newBase(90, 2, 8, 1)
	m := New(base, 0.5)
	xi, ti := randomData(91, 12, 2, 1)
	if err := m.InitTrain(xi, ti); err != nil {
		t.Fatal(err)
	}
	sink := &guardSink{}
	m.SetObserver(obs.NewEmitter(sink))

	// Poison P: a large negative diagonal destroys positive-definiteness,
	// so K = I + H·P·Hᵀ collapses below the exact-arithmetic floor of I.
	for i := 0; i < m.P.Rows(); i++ {
		m.P.Set(i, i, m.P.At(i, i)-100)
	}
	pBefore := m.P.Clone()
	betaBefore := m.Beta.Clone()
	updatesBefore := m.Updates()

	x, tt := randomData(92, 4, 2, 1)
	err := m.SeqTrainBatch(x, tt)
	if !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("expected ErrIllConditioned, got %v", err)
	}
	if !mat.Equal(m.P, pBefore, 0) {
		t.Error("rejected update must leave P untouched")
	}
	if !mat.Equal(m.Beta, betaBefore, 0) {
		t.Error("rejected update must leave beta untouched")
	}
	if m.Updates() != updatesBefore {
		t.Error("rejected update must not count as an update")
	}
	if m.GuardTrips() != 1 {
		t.Errorf("GuardTrips = %d, want 1", m.GuardTrips())
	}

	// Second trip: counter advances, but the numeric_alert is emitted only
	// on the first trip of the run (same contract as the fixed-point core).
	if err := m.SeqTrainBatch(x, tt); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("second update: expected ErrIllConditioned, got %v", err)
	}
	if m.GuardTrips() != 2 {
		t.Errorf("GuardTrips = %d, want 2", m.GuardTrips())
	}
	var alerts []obs.Event
	for _, ev := range sink.events {
		if ev.Type == obs.EventNumericAlert {
			alerts = append(alerts, ev)
		}
	}
	if len(alerts) != 1 {
		t.Fatalf("numeric_alert count = %d, want 1", len(alerts))
	}
	if alerts[0].Labels["rule"] != "seq_train_batch_guard" {
		t.Errorf("alert rule = %q", alerts[0].Labels["rule"])
	}
	if alerts[0].Labels["metric"] != obs.MetricBatchGuard {
		t.Errorf("alert metric = %q", alerts[0].Labels["metric"])
	}
	if alerts[0].Data["threshold"] != 0.5 {
		t.Errorf("alert threshold = %v", alerts[0].Data["threshold"])
	}
}
