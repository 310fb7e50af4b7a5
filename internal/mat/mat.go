// Package mat provides a dense, row-major float64 matrix library built on
// the standard library only. It implements everything the OS-ELM
// reproduction needs: general matrix multiplication (naive, blocked, and
// goroutine-parallel), transpose, elementwise operations, Gauss-Jordan
// inversion, Cholesky decomposition, a one-sided Jacobi SVD,
// Moore-Penrose pseudo-inverse, power iteration for the largest singular
// value, a Jacobi symmetric eigensolver, and assorted norms.
//
// The package is deliberately small-matrix oriented: OS-ELM works with
// matrices no larger than a few hundred rows/columns, so clarity and
// correctness win over cache heroics, but a blocked parallel GEMM is
// provided for the harness's larger sweeps.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a dense row-major matrix. The zero value is an empty matrix.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// ErrShape is returned (or wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("mat: dimension mismatch")

// ErrSingular is returned when a matrix is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular")

// New returns a rows×cols matrix. If data is nil a zero matrix is allocated;
// otherwise data is used directly (not copied) and must have length rows*cols.
func New(rows, cols int, data []float64) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	if data == nil {
		data = make([]float64, rows*cols)
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// Zeros returns a rows×cols zero matrix.
func Zeros(rows, cols int) *Dense { return New(rows, cols, nil) }

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense {
	m := Zeros(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	m := Zeros(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("mat: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// RowVector returns a 1×n matrix holding a copy of v.
func RowVector(v []float64) *Dense {
	d := make([]float64, len(v))
	copy(d, v)
	return New(1, len(v), d)
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Dims returns (rows, cols).
func (m *Dense) Dims() (int, int) { return m.rows, m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// RawData returns the underlying row-major backing slice. Mutating it
// mutates the matrix.
func (m *Dense) RawData() []float64 { return m.data }

// Row returns a copy of row i.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of range")
	}
	out := make([]float64, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic("mat: col index out of range")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetRow copies v into row i.
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic("mat: SetRow length mismatch")
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return New(m.rows, m.cols, d)
}

// CopyFrom copies src into m; shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(ErrShape)
	}
	copy(m.data, src.data)
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := Zeros(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[base+j]
		}
	}
	return t
}

// Add returns a + b.
func Add(a, b *Dense) *Dense {
	requireSameShape(a, b)
	out := Zeros(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b.
func Sub(a, b *Dense) *Dense {
	requireSameShape(a, b)
	out := Zeros(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// ScaleInPlace sets a = s*a and returns a.
func ScaleInPlace(s float64, a *Dense) *Dense {
	for i := range a.data {
		a.data[i] *= s
	}
	return a
}

// Apply returns a new matrix with f applied to every element of a.
func Apply(a *Dense, f func(float64) float64) *Dense {
	out := Zeros(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = f(a.data[i])
	}
	return out
}

// AddScaledIdentity returns a + s*I for square a.
func AddScaledIdentity(a *Dense, s float64) *Dense {
	if a.rows != a.cols {
		panic(ErrShape)
	}
	out := a.Clone()
	for i := 0; i < a.rows; i++ {
		out.data[i*a.cols+i] += s
	}
	return out
}

func requireSameShape(a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Errorf("%w: %dx%d vs %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols))
	}
}

// Mul returns a·b using the default strategy (blocked serial for small
// matrices, parallel for large ones).
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, a.rows, a.cols, b.rows, b.cols))
	}
	out := Zeros(a.rows, b.cols)
	MulInto(out, a, b)
	return out
}

// MulInto computes dst = a·b. dst must be preallocated with shape
// a.Rows()×b.Cols() and must not alias a or b.
func MulInto(dst, a, b *Dense) {
	if a.cols != b.rows || dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Errorf("%w: MulInto %dx%d = %dx%d · %dx%d",
			ErrShape, dst.rows, dst.cols, a.rows, a.cols, b.rows, b.cols))
	}
	// Work estimate decides serial vs parallel.
	work := a.rows * a.cols * b.cols
	if work >= parallelThreshold {
		gemmParallel(dst, a, b)
		return
	}
	gemmSerial(dst, a, b, 0, a.rows)
}

// MulT3 returns a·b·c, associating to minimize intermediate size.
func MulT3(a, b, c *Dense) *Dense {
	// Cost of (a·b)·c vs a·(b·c).
	left := a.rows*a.cols*b.cols + a.rows*b.cols*c.cols
	right := b.rows*b.cols*c.cols + a.rows*a.cols*c.cols
	if left <= right {
		return Mul(Mul(a, b), c)
	}
	return Mul(a, Mul(b, c))
}

// MulVec computes a·x for a column vector x given as a slice, returning a slice.
func MulVec(a *Dense, x []float64) []float64 {
	if a.cols != len(x) {
		panic(fmt.Errorf("%w: MulVec %dx%d · %d", ErrShape, a.rows, a.cols, len(x)))
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		base := i * a.cols
		var s float64
		for j, xv := range x {
			s += a.data[base+j] * xv
		}
		out[i] = s
	}
	return out
}

// MulVecInto computes dst = a·x without allocating; dst must have length
// a.Rows() and must not alias x.
//
// Rows are taken four at a time. Each row keeps its own accumulator and
// sums over j in ascending order, exactly as MulVec does, so every dst[i]
// is bit-identical to the one-row loop; interleaving only lets the four
// independent add chains overlap instead of waiting on one chain's
// latency.
func MulVecInto(dst []float64, a *Dense, x []float64) {
	if a.cols != len(x) || a.rows != len(dst) {
		panic(fmt.Errorf("%w: MulVecInto %d = %dx%d · %d", ErrShape, len(dst), a.rows, a.cols, len(x)))
	}
	n := len(x)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		r0 := a.data[i*n:][:n]
		r1 := a.data[(i+1)*n:][:n]
		r2 := a.data[(i+2)*n:][:n]
		r3 := a.data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < len(dst); i++ {
		r := a.data[i*n:][:n]
		var s float64
		for j, xv := range x {
			s += r[j] * xv
		}
		dst[i] = s
	}
}

// VecMul computes xᵀ·a for a row vector x given as a slice, returning a slice.
func VecMul(x []float64, a *Dense) []float64 {
	if a.rows != len(x) {
		panic(fmt.Errorf("%w: VecMul %d · %dx%d", ErrShape, len(x), a.rows, a.cols))
	}
	out := make([]float64, a.cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		base := i * a.cols
		for j := 0; j < a.cols; j++ {
			out[j] += xv * a.data[base+j]
		}
	}
	return out
}

// VecMulInto computes dst = xᵀ·a without allocating; dst must have length
// a.Cols() and must not alias x.
func VecMulInto(dst []float64, x []float64, a *Dense) {
	if a.rows != len(x) || a.cols != len(dst) {
		panic(fmt.Errorf("%w: VecMulInto %d = %d · %dx%d", ErrShape, len(dst), len(x), a.rows, a.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		base := i * a.cols
		for j := 0; j < a.cols; j++ {
			dst[j] += xv * a.data[base+j]
		}
	}
}

// Dot returns the dot product of two equal-length slices.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(ErrShape)
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value.
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(sum of squared elements).
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Trace returns the trace of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic(ErrShape)
	}
	var s float64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+i]
	}
	return s
}

// Symmetrize sets m = (m + mᵀ)/2 for square m and returns m. OS-ELM's P
// matrix is symmetric in exact arithmetic; re-symmetrizing controls drift.
func (m *Dense) Symmetrize() *Dense {
	if m.rows != m.cols {
		panic(ErrShape)
	}
	n := m.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.5 * (m.data[i*n+j] + m.data[j*n+i])
			m.data[i*n+j] = v
			m.data[j*n+i] = v
		}
	}
	return m
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Dense %dx%d\n", m.rows, m.cols)
	maxR, maxC := m.rows, m.cols
	const cap = 8
	trunc := false
	if maxR > cap {
		maxR, trunc = cap, true
	}
	if maxC > cap {
		maxC, trunc = cap, true
	}
	for i := 0; i < maxR; i++ {
		for j := 0; j < maxC; j++ {
			fmt.Fprintf(&sb, "% .5g\t", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	if trunc {
		sb.WriteString("...\n")
	}
	return sb.String()
}
