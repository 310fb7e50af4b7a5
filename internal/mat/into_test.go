package mat

import (
	"math"
	"testing"

	"oselmrl/internal/rng"
)

func TestMulVecInto(t *testing.T) {
	r := rng.New(80)
	a := randomMatrix(r, 7, 5, -3, 3)
	x := make([]float64, 5)
	r.FillUniform(x, -3, 3)
	dst := make([]float64, 7)
	MulVecInto(dst, a, x)
	want := MulVec(a, x)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecInto[%d] = %v want %v", i, dst[i], want[i])
		}
	}
	// Stale destination contents must be overwritten.
	for i := range dst {
		dst[i] = 999
	}
	MulVecInto(dst, a, x)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatal("MulVecInto must overwrite dst")
		}
	}
}

func TestVecMulInto(t *testing.T) {
	r := rng.New(81)
	a := randomMatrix(r, 6, 9, -2, 2)
	x := make([]float64, 6)
	r.FillUniform(x, -2, 2)
	dst := make([]float64, 9)
	for i := range dst {
		dst[i] = -1 // stale values
	}
	VecMulInto(dst, x, a)
	want := VecMul(x, a)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("VecMulInto[%d] = %v want %v", i, dst[i], want[i])
		}
	}
}

func TestIntoShapePanics(t *testing.T) {
	a := Zeros(3, 4)
	cases := map[string]func(){
		"MulVecInto dst": func() { MulVecInto(make([]float64, 2), a, make([]float64, 4)) },
		"MulVecInto x":   func() { MulVecInto(make([]float64, 3), a, make([]float64, 5)) },
		"VecMulInto dst": func() { VecMulInto(make([]float64, 5), make([]float64, 3), a) },
		"VecMulInto x":   func() { VecMulInto(make([]float64, 4), make([]float64, 2), a) },
		"MulInto shape":  func() { MulInto(Zeros(2, 2), a, Zeros(4, 5)) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestMulLargeUsesParallelPath: a product big enough to cross the
// parallel threshold must agree with the serial reference.
func TestMulLargeUsesParallelPath(t *testing.T) {
	r := rng.New(82)
	// 300*300*300 = 2.7e7 > parallelThreshold (4.2e6).
	a := randomMatrix(r, 300, 300, -1, 1)
	b := randomMatrix(r, 300, 300, -1, 1)
	got := Mul(a, b)
	want := MulSerial(a, b)
	if !Equal(got, want, 1e-9) {
		t.Error("parallel Mul path disagrees with serial")
	}
}

func TestMulT3RightAssociation(t *testing.T) {
	r := rng.New(83)
	// Shapes chosen so a·(b·c) is cheaper: a is 2x10, b 10x10, c 10x1.
	a := randomMatrix(r, 2, 10, -1, 1)
	b := randomMatrix(r, 10, 10, -1, 1)
	c := randomMatrix(r, 10, 1, -1, 1)
	got := MulT3(a, b, c)
	want := Mul(Mul(a, b), c)
	if !Equal(got, want, 1e-10) {
		t.Error("MulT3 right-association path wrong")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(Zeros(2, 2), Zeros(2, 3), 1) {
		t.Error("different shapes are never equal")
	}
}

func TestCopyFromShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zeros(2, 2).CopyFrom(Zeros(3, 3))
}

func TestColsAccessor(t *testing.T) {
	if Zeros(2, 5).Cols() != 5 {
		t.Error("Cols")
	}
}

func TestDotLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// MulSerialInto row i must be BIT-identical to VecMulInto of row i — the
// accumulation order and zero-skip are shared, and the serving tier's
// batched-vs-unbatched golden tests depend on it.
func TestMulSerialIntoRowsBitIdenticalToVecMul(t *testing.T) {
	r := rng.New(82)
	a := randomMatrix(r, 9, 130, -2, 2) // inner dim > gemmBlock to cross a tile edge
	a.Set(3, 17, 0)                     // exercise the zero-operand skip
	b := randomMatrix(r, 130, 7, -2, 2)
	dst := Zeros(9, 7)
	for i := range dst.data {
		dst.data[i] = 42 // stale values must be overwritten
	}
	MulSerialInto(dst, a, b)
	row := make([]float64, 7)
	for i := 0; i < 9; i++ {
		VecMulInto(row, a.Row(i), b)
		for j := range row {
			if dst.At(i, j) != row[j] {
				t.Fatalf("dst[%d,%d] = %v, VecMulInto gives %v", i, j, dst.At(i, j), row[j])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch must panic")
		}
	}()
	MulSerialInto(Zeros(2, 2), a, b)
}

// MulVecInto takes rows four at a time; every dst[i] must still be
// BIT-identical to the one-row loop (one accumulator, ascending j) for
// every row count around the group size, including the tail rows, and for
// entries of ±0 and subnormals.
func TestMulVecIntoBitIdenticalToRowLoop(t *testing.T) {
	r := rng.New(84)
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-3 * math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1060, 1e-300, -2.5}
	fill := func(v []float64) {
		for i := range v {
			if r.Intn(3) == 0 {
				v[i] = special[r.Intn(len(special))]
			} else {
				v[i] = r.Uniform(-3, 3)
			}
		}
	}
	for rows := 0; rows <= 9; rows++ {
		for _, cols := range []int{0, 1, 3, 4, 7, 64, 65} {
			a := Zeros(rows, cols)
			x := make([]float64, cols)
			fill(a.RawData())
			fill(x)
			dst := make([]float64, rows)
			for i := range dst {
				dst[i] = 42 // stale values must be overwritten
			}
			MulVecInto(dst, a, x)
			for i := 0; i < rows; i++ {
				var s float64
				for j, xv := range x {
					s += a.At(i, j) * xv
				}
				if math.Float64bits(dst[i]) != math.Float64bits(s) {
					t.Fatalf("%dx%d row %d: MulVecInto %v (%#x), row loop %v (%#x)",
						rows, cols, i, dst[i], math.Float64bits(dst[i]), s, math.Float64bits(s))
				}
			}
		}
	}
}
