package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"oselmrl/internal/rng"
)

func TestSymEigenDiagonal(t *testing.T) {
	a := New(3, 3, []float64{5, 0, 0, 0, -2, 0, 0, 0, 1})
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 1, -2}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-10 {
			t.Errorf("eigenvalue[%d] = %v want %v", i, vals[i], w)
		}
	}
	if !Equal(Mul(vecs.T(), vecs), Eye(3), 1e-10) {
		t.Error("eigenvectors not orthonormal")
	}
}

func TestSymEigenReconstruction(t *testing.T) {
	r := rng.New(22)
	a := spd(r, 12)
	vals, vecs, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild V·diag(λ)·Vᵀ.
	vd := vecs.Clone()
	for j := range vals {
		for i := 0; i < vd.Rows(); i++ {
			vd.Set(i, j, vd.At(i, j)*vals[j])
		}
	}
	if !Equal(Mul(vd, vecs.T()), a, 1e-8) {
		t.Error("V·diag(λ)·Vᵀ != a")
	}
	// SPD: all eigenvalues positive, sorted descending.
	for i, v := range vals {
		if v <= 0 {
			t.Errorf("eigenvalue[%d] = %v not positive for SPD matrix", i, v)
		}
		if i > 0 && v > vals[i-1]+1e-12 {
			t.Error("eigenvalues not sorted")
		}
	}
}

// Property: trace equals the eigenvalue sum, σmax² equals the top
// eigenvalue of aᵀa.
func TestPropertyEigenInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(6)
		a := spd(r, n)
		vals, _, err := SymEigen(a)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(sum-a.Trace()) > 1e-8*math.Abs(sum) {
			return false
		}
		sigma := LargestSingularValue(a, 400, nil)
		// For SPD a, σmax = λmax.
		return math.Abs(sigma-vals[0]) <= 1e-6*vals[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSymEigenNonSquare(t *testing.T) {
	if _, _, err := SymEigen(Zeros(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
}
