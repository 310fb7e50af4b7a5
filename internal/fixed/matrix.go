package fixed

import (
	"fmt"
	"math"

	"oselmrl/internal/mat"
)

// Matrix is a dense row-major matrix of Qm.f fixed-point values — the
// on-chip BRAM contents of the FPGA core. The matrix carries its format so
// float-boundary methods (ToDense, FrobeniusNorm, Trace, MaxAbsError)
// interpret the words correctly; storage is 32-bit per element in every
// format. The zero format is the Q20 default.
type Matrix struct {
	rows, cols int
	q          QFormat
	data       []Fixed
}

// NewMatrix allocates a rows×cols zero matrix in the default Q20 format.
func NewMatrix(rows, cols int) *Matrix {
	return NewMatrixQ(rows, cols, QFormat{})
}

// NewMatrixQ allocates a rows×cols zero matrix in the given format.
func NewMatrixQ(rows, cols int, q QFormat) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("fixed: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, q: q.Normalized(), data: make([]Fixed, rows*cols)}
}

// Format returns the matrix's Qm.f format (normalized, so the zero-format
// default reports Q20).
func (m *Matrix) Format() QFormat { return m.q.Normalized() }

// FromDense quantizes a float64 matrix into fixed point (Q20 default).
func FromDense(m *mat.Dense) *Matrix {
	return FromDenseAcct(m, nil)
}

// FromDenseAcct is FromDense with per-element conversion accounting (NaN
// coercions, rail saturations, accumulated quantization error). acct may
// be nil, which is exactly FromDense.
func FromDenseAcct(m *mat.Dense, acct *Acct) *Matrix {
	return FromDenseQ(m, QFormat{}, acct)
}

// FromDenseQ quantizes a float64 matrix into the given format, with
// optional per-element conversion accounting (acct may be nil).
func FromDenseQ(m *mat.Dense, q QFormat, acct *Acct) *Matrix {
	r, c := m.Dims()
	out := NewMatrixQ(r, c, q)
	src := m.RawData()
	for i := range src {
		out.data[i] = acct.FromFloatQ(q, src[i])
	}
	return out
}

// ToDense converts back to float64 under the matrix's format.
func (m *Matrix) ToDense() *mat.Dense {
	out := mat.Zeros(m.rows, m.cols)
	dst := out.RawData()
	for i := range m.data {
		dst[i] = m.q.Float(m.data[i])
	}
	return out
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) Fixed { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v Fixed) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage: writes
// through it update the matrix. The datapath kernels stream BRAM rows
// through it.
func (m *Matrix) Row(i int) []Fixed {
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Clone returns a deep copy preserving the format.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrixQ(m.rows, m.cols, m.q)
	copy(out.data, m.data)
	return out
}

// Words returns the number of 32-bit storage words the matrix occupies —
// the quantity the BRAM resource estimator charges for, identical in
// every Qm.f format.
func (m *Matrix) Words() int { return len(m.data) }

// FrobeniusNorm returns the Frobenius norm of the matrix in real value
// units — the β-magnitude drift signal the learning-dynamics telemetry
// tracks for the quantized network.
func (m *Matrix) FrobeniusNorm() float64 {
	var sum float64
	for _, v := range m.data {
		f := m.q.Float(v)
		sum += f * f
	}
	return math.Sqrt(sum)
}

// Trace returns the sum of diagonal elements in real value units. Panics
// on a non-square matrix. For the core's P BRAM this is the gain-trace
// numerator: trace(P)/Ñ tracks how much adaptation capacity remains.
func (m *Matrix) Trace() float64 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("fixed: Trace of non-square %dx%d matrix", m.rows, m.cols))
	}
	var sum float64
	for i := 0; i < m.rows; i++ {
		sum += m.q.Float(m.At(i, i))
	}
	return sum
}

// MaxAbsError returns the largest |fixed - float| discrepancy against a
// reference float64 matrix, used by the precision tests.
func (m *Matrix) MaxAbsError(ref *mat.Dense) float64 {
	r, c := ref.Dims()
	if r != m.rows || c != m.cols {
		panic("fixed: shape mismatch in MaxAbsError")
	}
	var worst float64
	rd := ref.RawData()
	for i := range m.data {
		d := m.q.Float(m.data[i]) - rd[i]
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
