package mat

import (
	"math"
	"testing"
	"testing/quick"

	"oselmrl/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomMatrix(r *rng.RNG, rows, cols int, lo, hi float64) *Dense {
	m := Zeros(rows, cols)
	r.FillUniform(m.RawData(), lo, hi)
	return m
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("Dims = %d,%d want 2,3", r, c)
	}
	if got := m.At(0, 0); got != 1 {
		t.Errorf("At(0,0) = %v", got)
	}
	if got := m.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %v", got)
	}
	m.Set(1, 2, 42)
	if got := m.At(1, 2); got != 42 {
		t.Errorf("after Set, At(1,2) = %v", got)
	}
}

func TestNewNilDataAllocatesZeros(t *testing.T) {
	m := New(3, 4, nil)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) not zero", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	New(2, 2, []float64{1, 2, 3})
}

func TestAtPanicsOutOfRange(t *testing.T) {
	m := Zeros(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for index %v", idx)
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestEye(t *testing.T) {
	m := Eye(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Eye(4)[%d,%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("Dims = %d,%d", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Errorf("At(2,1) = %v", m.At(2, 1))
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowVector(t *testing.T) {
	rv := RowVector([]float64{1, 2, 3})
	if r, c := rv.Dims(); r != 1 || c != 3 {
		t.Fatalf("RowVector dims %d,%d", r, c)
	}
	// RowVector copies its input.
	src := []float64{9}
	v := RowVector(src)
	src[0] = 1
	if v.At(0, 0) != 9 {
		t.Error("RowVector must copy input")
	}
}

func TestRowColCopies(t *testing.T) {
	m := New(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Error("Row must return a copy")
	}
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Errorf("Col(1) = %v", c)
	}
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Error("Col must return a copy")
	}
}

func TestSetRow(t *testing.T) {
	m := Zeros(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	if m.At(1, 0) != 7 || m.At(1, 2) != 9 {
		t.Errorf("SetRow failed: %v", m.Row(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong row length")
		}
	}()
	m.SetRow(0, []float64{1})
}

func TestCloneIndependence(t *testing.T) {
	m := New(2, 2, []float64{1, 2, 3, 4})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestTranspose(t *testing.T) {
	m := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if r, c := tr.Dims(); r != 3 || c != 2 {
		t.Fatalf("T dims %d,%d", r, c)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(1)
	m := randomMatrix(r, 5, 7, -10, 10)
	if !Equal(m, m.T().T(), 0) {
		t.Error("T(T(m)) != m")
	}
}

func TestAddSub(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 3, 4})
	b := New(2, 2, []float64{10, 20, 30, 40})
	s := Add(a, b)
	if s.At(1, 1) != 44 {
		t.Errorf("Add = %v", s)
	}
	d := Sub(b, a)
	if d.At(0, 0) != 9 {
		t.Errorf("Sub = %v", d)
	}
	// Operands unchanged.
	if a.At(0, 0) != 1 || b.At(0, 0) != 10 {
		t.Error("Add/Sub must not mutate operands")
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := Zeros(2, 2), Zeros(2, 3)
	for name, f := range map[string]func(){
		"Add": func() { Add(a, b) },
		"Sub": func() { Sub(a, b) },
		"Mul": func() { Mul(b, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected shape panic", name)
				}
			}()
			f()
		}()
	}
}

func TestScale(t *testing.T) {
	a := New(1, 3, []float64{1, -2, 3})
	ScaleInPlace(0.5, a)
	if a.At(0, 2) != 1.5 {
		t.Errorf("ScaleInPlace = %v", a)
	}
}

func TestApply(t *testing.T) {
	a := New(1, 3, []float64{1, 2, 3})
	sq := Apply(a, func(x float64) float64 { return x * x })
	if sq.At(0, 2) != 9 {
		t.Errorf("Apply = %v", sq)
	}
}

func TestMulKnownValues(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := New(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := New(2, 2, []float64{58, 64, 139, 154})
	if !Equal(c, want, 1e-12) {
		t.Errorf("Mul = %v want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(2)
	a := randomMatrix(r, 6, 6, -5, 5)
	if !Equal(Mul(a, Eye(6)), a, 1e-12) {
		t.Error("a·I != a")
	}
	if !Equal(Mul(Eye(6), a), a, 1e-12) {
		t.Error("I·a != a")
	}
}

func TestMulSerialParallelAgree(t *testing.T) {
	r := rng.New(3)
	a := randomMatrix(r, 67, 45, -1, 1)
	b := randomMatrix(r, 45, 83, -1, 1)
	s := MulSerial(a, b)
	p := MulParallel(a, b)
	if !Equal(s, p, 1e-10) {
		t.Error("serial and parallel GEMM disagree")
	}
}

func TestMulAssociativity(t *testing.T) {
	r := rng.New(4)
	a := randomMatrix(r, 4, 5, -2, 2)
	b := randomMatrix(r, 5, 6, -2, 2)
	c := randomMatrix(r, 6, 3, -2, 2)
	left := Mul(Mul(a, b), c)
	right := Mul(a, Mul(b, c))
	if !Equal(left, right, 1e-10) {
		t.Error("(ab)c != a(bc)")
	}
	if !Equal(MulT3(a, b, c), left, 1e-10) {
		t.Error("MulT3 disagrees with explicit product")
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := New(2, 3, []float64{1, 2, 3, 4, 5, 6})
	v := MulVec(a, []float64{1, 1, 1})
	if v[0] != 6 || v[1] != 15 {
		t.Errorf("MulVec = %v", v)
	}
	w := VecMul([]float64{1, 1}, a)
	if w[0] != 5 || w[1] != 7 || w[2] != 9 {
		t.Errorf("VecMul = %v", w)
	}
}

func TestMulVecMatchesMul(t *testing.T) {
	r := rng.New(5)
	a := randomMatrix(r, 8, 11, -3, 3)
	x := make([]float64, 11)
	r.FillUniform(x, -3, 3)
	got := MulVec(a, x)
	want := Mul(a, New(len(x), 1, x))
	for i := range got {
		if !almostEqual(got[i], want.At(i, 0), 1e-12) {
			t.Fatalf("MulVec[%d] = %v want %v", i, got[i], want.At(i, 0))
		}
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v", got)
	}
}

func TestAddScaledIdentity(t *testing.T) {
	a := Zeros(3, 3)
	b := AddScaledIdentity(a, 2.5)
	if b.At(1, 1) != 2.5 || b.At(0, 1) != 0 {
		t.Errorf("AddScaledIdentity = %v", b)
	}
	if a.At(1, 1) != 0 {
		t.Error("AddScaledIdentity must not mutate input")
	}
}

func TestNormsAndTrace(t *testing.T) {
	a := New(2, 2, []float64{3, 0, -4, 0})
	if got := a.FrobeniusNorm(); !almostEqual(got, 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v", got)
	}
	if got := a.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %v", got)
	}
	if got := a.Trace(); got != 3 {
		t.Errorf("Trace = %v", got)
	}
}

func TestSymmetrize(t *testing.T) {
	a := New(2, 2, []float64{1, 2, 4, 3})
	a.Symmetrize()
	if a.At(0, 1) != 3 || a.At(1, 0) != 3 {
		t.Errorf("Symmetrize = %v", a)
	}
}

func TestCopyFrom(t *testing.T) {
	a := Zeros(2, 2)
	b := New(2, 2, []float64{1, 2, 3, 4})
	a.CopyFrom(b)
	if !Equal(a, b, 0) {
		t.Error("CopyFrom mismatch")
	}
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Error("CopyFrom must copy, not alias")
	}
}

// Property: (A+B)ᵀ = Aᵀ + Bᵀ on random matrices, via testing/quick seeds.
func TestPropertyTransposeLinear(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		rows, cols := 1+r.Intn(10), 1+r.Intn(10)
		a := randomMatrix(r, rows, cols, -100, 100)
		b := randomMatrix(r, rows, cols, -100, 100)
		return Equal(Add(a, b).T(), Add(a.T(), b.T()), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ.
func TestPropertyMulTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := randomMatrix(r, m, k, -10, 10)
		b := randomMatrix(r, k, n, -10, 10)
		return Equal(Mul(a, b).T(), Mul(b.T(), a.T()), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Frobenius norm is invariant under transpose.
func TestPropertyFrobeniusTransposeInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randomMatrix(r, 1+r.Intn(12), 1+r.Intn(12), -50, 50)
		return almostEqual(a.FrobeniusNorm(), a.T().FrobeniusNorm(), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringTruncates(t *testing.T) {
	small := Zeros(2, 2)
	if s := small.String(); len(s) == 0 {
		t.Error("String empty")
	}
	big := Zeros(20, 20)
	s := big.String()
	if len(s) == 0 {
		t.Error("String empty for big matrix")
	}
}
