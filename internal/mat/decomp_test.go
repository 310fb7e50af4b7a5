package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"oselmrl/internal/rng"
)

// wellConditioned returns A + n·I for random A, guaranteeing invertibility.
func wellConditioned(r *rng.RNG, n int) *Dense {
	a := randomMatrix(r, n, n, -1, 1)
	return AddScaledIdentity(a, float64(n))
}

// spd returns a random symmetric positive-definite matrix AᵀA + I.
func spd(r *rng.RNG, n int) *Dense {
	a := randomMatrix(r, n, n, -1, 1)
	return AddScaledIdentity(Mul(a.T(), a), 1)
}

func TestInverseIdentity(t *testing.T) {
	inv, err := Inverse(Eye(5))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(inv, Eye(5), 1e-14) {
		t.Error("I⁻¹ != I")
	}
}

func TestInverseKnown2x2(t *testing.T) {
	a := New(2, 2, []float64{4, 7, 2, 6})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := New(2, 2, []float64{0.6, -0.7, -0.2, 0.4})
	if !Equal(inv, want, 1e-12) {
		t.Errorf("inverse = %v want %v", inv, want)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := rng.New(10)
	for n := 1; n <= 40; n += 7 {
		a := wellConditioned(r, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !Equal(Mul(a, inv), Eye(n), 1e-8) {
			t.Errorf("n=%d: a·a⁻¹ != I", n)
		}
		if !Equal(Mul(inv, a), Eye(n), 1e-8) {
			t.Errorf("n=%d: a⁻¹·a != I", n)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 2, 4}) // rank 1
	if _, err := Inverse(a); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestInverseNonSquare(t *testing.T) {
	if _, err := Inverse(Zeros(2, 3)); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
}

func TestInverseNeedsPivoting(t *testing.T) {
	// Zero in the (0,0) position forces a row swap.
	a := New(2, 2, []float64{0, 1, 1, 0})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(inv, a, 1e-14) { // a is its own inverse
		t.Errorf("inverse = %v", inv)
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := New(2, 2, []float64{4, 2, 2, 3})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(l, l.T()), a, 1e-12) {
		t.Error("L·Lᵀ != a")
	}
	if l.At(0, 1) != 0 {
		t.Error("L not lower triangular")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestSolveCholeskyMatchesInverse(t *testing.T) {
	r := rng.New(11)
	a := spd(r, 12)
	b := randomMatrix(r, 12, 3, -5, 5)
	x, err := SolveCholesky(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(a, x), b, 1e-8) {
		t.Error("a·x != b")
	}
}

func TestSVDReconstruction(t *testing.T) {
	r := rng.New(13)
	for _, dims := range [][2]int{{4, 4}, {8, 3}, {3, 8}, {15, 15}} {
		a := randomMatrix(r, dims[0], dims[1], -2, 2)
		sv, err := SVDDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		// Rebuild U·diag(S)·Vᵀ.
		k := len(sv.S)
		us := sv.U.Clone()
		for j := 0; j < k; j++ {
			for i := 0; i < us.Rows(); i++ {
				us.Set(i, j, us.At(i, j)*sv.S[j])
			}
		}
		if !Equal(Mul(us, sv.V.T()), a, 1e-8) {
			t.Errorf("%v: U·S·Vᵀ != a", dims)
		}
		// Singular values sorted descending, nonnegative.
		for i := 0; i < k; i++ {
			if sv.S[i] < 0 {
				t.Errorf("%v: negative singular value %v", dims, sv.S[i])
			}
			if i > 0 && sv.S[i] > sv.S[i-1]+1e-12 {
				t.Errorf("%v: singular values unsorted", dims)
			}
		}
		// U, V orthonormal columns.
		if !Equal(Mul(sv.U.T(), sv.U), Eye(k), 1e-8) {
			t.Errorf("%v: U not orthonormal", dims)
		}
		if !Equal(Mul(sv.V.T(), sv.V), Eye(k), 1e-8) {
			t.Errorf("%v: V not orthonormal", dims)
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := New(3, 3, []float64{3, 0, 0, 0, -5, 0, 0, 0, 1})
	sv, err := SVDDecompose(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 3, 1}
	for i, w := range want {
		if !almostEqual(sv.S[i], w, 1e-10) {
			t.Errorf("S[%d] = %v want %v", i, sv.S[i], w)
		}
	}
}

func TestPseudoInverseProperties(t *testing.T) {
	r := rng.New(14)
	// Tall full-rank matrix: A†·A = I.
	a := randomMatrix(r, 10, 4, -1, 1)
	pinv, err := PseudoInverse(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(pinv, a), Eye(4), 1e-8) {
		t.Error("A†·A != I for full-column-rank A")
	}
	// Moore-Penrose condition: A·A†·A = A.
	if !Equal(Mul(Mul(a, pinv), a), a, 1e-8) {
		t.Error("A·A†·A != A")
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	// Rank-1 matrix: pseudo-inverse must still satisfy A·A†·A = A.
	a := New(3, 2, []float64{1, 2, 2, 4, 3, 6})
	pinv, err := PseudoInverse(a, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(Mul(Mul(a, pinv), a), a, 1e-8) {
		t.Error("A·A†·A != A for rank-deficient A")
	}
}

func TestLargestSingularValueMatchesSVD(t *testing.T) {
	r := rng.New(15)
	for i := 0; i < 5; i++ {
		a := randomMatrix(r, 6+i, 9-i, -4, 4)
		sv, err := SVDDecompose(a)
		if err != nil {
			t.Fatal(err)
		}
		got := LargestSingularValue(a, 500, nil)
		if !almostEqual(got, sv.S[0], 1e-6*sv.S[0]) {
			t.Errorf("power iteration σmax = %v, SVD = %v", got, sv.S[0])
		}
	}
}

func TestLargestSingularValueZeroMatrix(t *testing.T) {
	if got := LargestSingularValue(Zeros(4, 4), 50, nil); got != 0 {
		t.Errorf("σmax of zero matrix = %v", got)
	}
}

// Property: σmax(A) <= ||A||_F (paper Relation 13, the L2-vs-spectral-norm
// bound that justifies replacing spectral regularization with L2).
func TestPropertySpectralLEFrobenius(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randomMatrix(r, 1+r.Intn(10), 1+r.Intn(10), -20, 20)
		return LargestSingularValue(a, 300, nil) <= a.FrobeniusNorm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the inverse of an SPD matrix is SPD (diagonal positive,
// symmetric) — the invariant OS-ELM's P relies on.
func TestPropertySPDInverseSPD(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		a := spd(r, n)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if inv.At(i, i) <= 0 {
				return false
			}
			for j := i + 1; j < n; j++ {
				if math.Abs(inv.At(i, j)-inv.At(j, i)) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Inverse agrees with SolveCholesky on SPD systems.
func TestPropertyInverseVsCholesky(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(6)
		a := spd(r, n)
		b := randomMatrix(r, n, 1, -3, 3)
		inv, err := Inverse(a)
		if err != nil {
			return false
		}
		x1 := Mul(inv, b)
		x2, err := SolveCholesky(a, b)
		if err != nil {
			return false
		}
		return Equal(x1, x2, 1e-7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
