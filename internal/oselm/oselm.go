// Package oselm implements Online Sequential ELM (Liang et al., 2006) and
// its L2-regularized variant ReOS-ELM (Huynh & Won, 2011) as the paper's
// §2.2-2.3 define them:
//
// Initial training (Eq. 7 / Eq. 8):
//
//	P₀ = (H₀ᵀH₀ + δI)⁻¹        (δ = 0 recovers plain OS-ELM)
//	β₀ = P₀ H₀ᵀ t₀
//
// Sequential training (Eq. 5):
//
//	Pᵢ = Pᵢ₋₁ − Pᵢ₋₁Hᵢᵀ (I + HᵢPᵢ₋₁Hᵢᵀ)⁻¹ HᵢPᵢ₋₁
//	βᵢ = βᵢ₋₁ + PᵢHᵢᵀ (tᵢ − Hᵢβᵢ₋₁)
//
// With the batch size fixed at 1 — the key simplification of [3] that the
// paper adopts — the k×k inverse degenerates to a scalar reciprocal, so
// sequential training needs no SVD/QRD core (§2.2: "the pseudo inverse
// operation of k×k matrix ... is replaced with a simple reciprocal
// operation"). SeqTrainOne implements that fast path; SeqTrainBatch keeps
// the general rank-k form for completeness and for cross-checking.
package oselm

import (
	"errors"
	"fmt"

	"oselmrl/internal/elm"
	"oselmrl/internal/mat"
	"oselmrl/internal/obs"
)

// Model is an OS-ELM: an ELM plus the running inverse-covariance matrix P.
type Model struct {
	*elm.Model
	// P is the Ñ×Ñ matrix Pᵢ of Eq. 5-8.
	P *mat.Dense
	// Delta is the L2 regularization parameter δ of Eq. 8 used at initial
	// training; 0 means plain OS-ELM (Eq. 7).
	Delta float64

	initialized bool
	updates     int
	guardTrips  int64
	emitter     *obs.Emitter

	// scratch buffers for the allocation-free rank-1 hot path; lazily
	// sized, never shared between clones.
	scratchH    []float64
	scratchPh   []float64
	scratchPred []float64
}

// ErrNotInitialized is returned by sequential training before InitTrain.
var ErrNotInitialized = errors.New("oselm: sequential training before initial training")

// ErrIllConditioned is returned (wrapped) when a sequential update is
// rejected by the Eq. 5 conditioning guard: the gain system
// K = I + H·P·Hᵀ, which in exact arithmetic is at least I, has lost that
// floor to accumulated rounding in P. The model keeps its previous P and β.
var ErrIllConditioned = errors.New("oselm: ill-conditioned Eq. 5 gain (numerical drift)")

// batchGuardFloor is the minimum Cholesky pivot of K = I + H·P·Hᵀ accepted
// by SeqTrainBatch. Exact arithmetic guarantees every pivot ≥ 1 (each pivot
// bounds the smallest eigenvalue of a Schur complement of K ⪰ I from
// below), so 0.5 only trips on genuine loss of positive-definiteness —
// the same floor the fixed-point core applies to its rank-1 denominator.
const batchGuardFloor = 0.5

// New wraps an ELM model into an OS-ELM with regularization delta.
func New(base *elm.Model, delta float64) *Model {
	return &Model{Model: base, Delta: delta}
}

// Restore rebuilds a trained OS-ELM from persisted state: the base ELM
// (α, b, β already set), the inverse-covariance matrix P (nil for an
// untrained model), the regularization delta and the update count. Used by
// internal/persist when loading snapshots.
func Restore(base *elm.Model, p *mat.Dense, delta float64, updates int) (*Model, error) {
	m := &Model{Model: base, Delta: delta, updates: updates}
	if p != nil {
		if p.Rows() != base.HiddenSize() || p.Cols() != base.HiddenSize() {
			return nil, fmt.Errorf("oselm: restored P is %dx%d, hidden size %d",
				p.Rows(), p.Cols(), base.HiddenSize())
		}
		m.P = p
		m.initialized = true
	}
	return m, nil
}

// Initialized reports whether initial training has completed.
func (m *Model) Initialized() bool { return m.initialized }

// GuardTrips returns how many sequential updates the Eq. 5 conditioning
// guard has rejected since the last initial training.
func (m *Model) GuardTrips() int64 { return m.guardTrips }

// SetObserver attaches an emitter so guard trips surface as the same
// numeric_alert family the fixed-point core emits (first trip only) plus a
// learn_batch_guard_trips counter. A nil emitter (the default) is silent.
func (m *Model) SetObserver(e *obs.Emitter) { m.emitter = e }

// tripGuard records one rejected update: P is re-symmetrized (the cheap
// repair available without refactoring), the trip counter bumps, and the
// first trip of the run emits a numeric_alert mirroring the rank-1
// seq_train_denom_guard alert of the fixed-point core.
func (m *Model) tripGuard(k int, minPivot float64) error {
	m.P.Symmetrize()
	m.guardTrips++
	m.emitter.Inc(obs.MetricBatchGuard, 1)
	if m.guardTrips == 1 {
		m.emitter.With(map[string]string{
			"rule":   "seq_train_batch_guard",
			"metric": obs.MetricBatchGuard,
		}).Emit(obs.EventNumericAlert, 0, map[string]float64{
			"value":     minPivot,
			"threshold": batchGuardFloor,
		})
	}
	return fmt.Errorf("%w: rank-%d update rejected, min Cholesky pivot %g < %g",
		ErrIllConditioned, k, minPivot, batchGuardFloor)
}

// Updates returns the number of sequential updates performed since the last
// initial training.
func (m *Model) Updates() int { return m.updates }

// InitTrain performs the initial training of Eq. 7/8 on chunk {x, t}. The
// paper requires the initial chunk to have at least Ñ rows for HᵀH to be
// invertible without regularization; with δ > 0 any chunk size works.
func (m *Model) InitTrain(x, t *mat.Dense) error {
	if t.Rows() != x.Rows() || t.Cols() != m.OutputSize() {
		return fmt.Errorf("oselm: target shape %dx%d does not match inputs %d / outputs %d",
			t.Rows(), t.Cols(), x.Rows(), m.OutputSize())
	}
	h := m.HiddenBatch(x)
	ht := h.T()
	gram := mat.Mul(ht, h)
	if m.Delta > 0 {
		gram = mat.AddScaledIdentity(gram, m.Delta)
	}
	p, err := mat.Inverse(gram)
	if err != nil && m.Delta == 0 {
		// Plain OS-ELM's H₀ᵀH₀ is singular whenever a ReLU hidden unit is
		// dead across the whole chunk. Retry with a vanishing numerical
		// jitter: P becomes enormous along the dead directions, which is
		// exactly the instability of unregularized OS-ELM the paper's L2
		// variant exists to fix — we preserve it rather than mask it.
		const jitter = 1e-8
		p, err = mat.Inverse(mat.AddScaledIdentity(gram, jitter))
	}
	if err != nil {
		return fmt.Errorf("oselm: init training gram inverse (need chunk >= hidden size or delta > 0): %w", err)
	}
	m.P = p.Symmetrize()
	m.Beta = mat.MulT3(m.P, ht, t)
	m.initialized = true
	m.updates = 0
	return nil
}

// SeqTrainOne performs one rank-1 sequential update (Eq. 5 with k = 1):
//
//	h  = G(x·α + b)             (row Ñ-vector)
//	ph = P·hᵀ                   (Ñ-vector)
//	s  = 1 / (1 + h·ph)         (the scalar reciprocal)
//	P  = P − s·ph·phᵀ
//	β  = β + P·hᵀ·(t − h·β)
//
// This is exactly the dataflow the FPGA seq_train module executes.
func (m *Model) SeqTrainOne(x, t []float64) error {
	if !m.initialized {
		return ErrNotInitialized
	}
	if len(t) != m.OutputSize() {
		return fmt.Errorf("oselm: target length %d, model outputs %d", len(t), m.OutputSize())
	}
	n := m.HiddenSize()
	if len(m.scratchH) != n {
		m.scratchH = make([]float64, n)
		m.scratchPh = make([]float64, n)
		m.scratchPred = make([]float64, m.OutputSize())
	}
	h, ph := m.scratchH, m.scratchPh
	m.HiddenOneInto(h, x)

	// ph = P·hᵀ
	mat.MulVecInto(ph, m.P, h)
	// s = 1/(1 + h·P·hᵀ)
	denom := 1 + mat.Dot(h, ph)
	if denom <= 0 {
		// P has lost positive-definiteness to rounding; re-symmetrize and
		// skip rather than blow up. In exact arithmetic denom >= 1.
		m.P.Symmetrize()
		return fmt.Errorf("oselm: non-positive gain denominator %g (numerical drift)", denom)
	}
	s := 1 / denom

	// P ← P − s·ph·phᵀ (symmetric rank-1 downdate).
	pd := m.P.RawData()
	for i, phv := range ph {
		phi := s * phv
		if phi == 0 {
			continue
		}
		row := pd[i*n:][:len(ph)]
		for j, phj := range ph {
			row[j] -= phi * phj
		}
	}

	// e = t − h·β ; β ← β + (Pᵢ·hᵀ)·e. By Sherman-Morrison the updated
	// gain is Pᵢ·hᵀ = s·(Pᵢ₋₁·hᵀ) = s·ph, so no second matvec is needed —
	// exactly the dataflow the FPGA seq_train module implements.
	pred := m.scratchPred
	mat.VecMulInto(pred, h, m.Beta)
	bd := m.Beta.RawData()
	mOut := len(t)
	pred = pred[:mOut]
	for i, phv := range ph {
		g := s * phv
		if g == 0 {
			continue
		}
		brow := bd[i*mOut:][:mOut]
		for c, tc := range t {
			brow[c] += g * (tc - pred[c])
		}
	}
	m.updates++
	return nil
}

// SeqTrainBatch performs the general rank-k sequential update of Eq. 5,
// requiring a k×k matrix inverse. The paper avoids this path on the FPGA
// (it would need an SVD/QRD core); it is kept for validation: a batch of k
// updates must agree with the recursive least-squares solution.
func (m *Model) SeqTrainBatch(x, t *mat.Dense) error {
	if !m.initialized {
		return ErrNotInitialized
	}
	if t.Rows() != x.Rows() || t.Cols() != m.OutputSize() {
		return fmt.Errorf("oselm: target shape %dx%d does not match inputs %d / outputs %d",
			t.Rows(), t.Cols(), x.Rows(), m.OutputSize())
	}
	h := m.HiddenBatch(x)
	ht := h.T()
	k := h.Rows()

	// K = I + H·P·Hᵀ  (k×k)
	php := mat.MulT3(h, m.P, ht)
	kMat := mat.AddScaledIdentity(php, 1)

	// Eq. 5 conditioning guard, rank-k form of the scalar denominator
	// floor in SeqTrainOne and the fixed-point core: in exact arithmetic
	// K ⪰ I, so every Cholesky pivot is ≥ 1. A failed factorization or a
	// pivot under batchGuardFloor means P has silently lost
	// positive-definiteness and applying the update would corrupt it
	// further — reject, keep the old P/β, and surface the trip.
	l, err := mat.Cholesky(kMat)
	if err != nil {
		return m.tripGuard(k, 0)
	}
	minPivot := l.At(0, 0) * l.At(0, 0)
	for i := 1; i < k; i++ {
		if p := l.At(i, i) * l.At(i, i); p < minPivot {
			minPivot = p
		}
	}
	if minPivot < batchGuardFloor {
		return m.tripGuard(k, minPivot)
	}
	kInv, err := mat.Inverse(kMat)
	if err != nil {
		return fmt.Errorf("oselm: rank-%d gain inverse: %w", k, err)
	}
	// P ← P − P·Hᵀ·K⁻¹·H·P
	pht := mat.Mul(m.P, ht)
	update := mat.MulT3(pht, kInv, mat.Mul(h, m.P))
	m.P = mat.Sub(m.P, update).Symmetrize()

	// β ← β + P·Hᵀ·(t − H·β)
	resid := mat.Sub(t, mat.Mul(h, m.Beta))
	m.Beta = mat.Add(m.Beta, mat.MulT3(m.P, ht, resid))
	m.updates += k
	return nil
}

// SolveDirect computes the exact regularized least-squares β over the full
// accumulated dataset, β = (HᵀH + δI)⁻¹Hᵀt. Tests use it as the ground
// truth the sequential updates must converge to.
func SolveDirect(base *elm.Model, x, t *mat.Dense, delta float64) (*mat.Dense, error) {
	h := base.HiddenBatch(x)
	ht := h.T()
	gram := mat.Mul(ht, h)
	if delta > 0 {
		gram = mat.AddScaledIdentity(gram, delta)
	}
	inv, err := mat.Inverse(gram)
	if err != nil {
		return nil, err
	}
	return mat.MulT3(inv, ht, t), nil
}

// Clone deep-copies the OS-ELM including P (for the θ2 target network).
func (m *Model) Clone() *Model {
	c := &Model{
		Model:       m.Model.Clone(),
		Delta:       m.Delta,
		initialized: m.initialized,
		updates:     m.updates,
		guardTrips:  m.guardTrips,
	}
	if m.P != nil {
		c.P = m.P.Clone()
	}
	return c
}

// CopyStateFrom copies weights and P from src (θ2 ← θ1 sync).
func (m *Model) CopyStateFrom(src *Model) {
	m.Model.CopyWeightsFrom(src.Model)
	if src.P != nil {
		if m.P == nil || m.P.Rows() != src.P.Rows() {
			m.P = src.P.Clone()
		} else {
			m.P.CopyFrom(src.P)
		}
	}
	m.Delta = src.Delta
	m.initialized = src.initialized
	m.updates = src.updates
}
