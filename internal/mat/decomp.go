package mat

import (
	"fmt"
	"math"
)

// Inverse returns a⁻¹ computed by Gauss-Jordan elimination with partial
// pivoting. It returns ErrSingular if a pivot underflows working precision.
func Inverse(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Inverse of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	// Augmented [a | I] worked in place.
	work := a.Clone()
	inv := Eye(n)
	wd, id := work.data, inv.data
	for col := 0; col < n; col++ {
		// Partial pivot: largest |value| in this column at or below the diagonal.
		pivRow, pivVal := col, math.Abs(wd[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(wd[r*n+col]); v > pivVal {
				pivRow, pivVal = r, v
			}
		}
		if pivVal < 1e-300 {
			return nil, fmt.Errorf("%w: pivot %d", ErrSingular, col)
		}
		if pivRow != col {
			swapRows(wd, n, pivRow, col)
			swapRows(id, n, pivRow, col)
		}
		// Normalize pivot row.
		p := wd[col*n+col]
		invP := 1 / p
		for j := 0; j < n; j++ {
			wd[col*n+j] *= invP
			id[col*n+j] *= invP
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := wd[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				wd[r*n+j] -= f * wd[col*n+j]
				id[r*n+j] -= f * id[col*n+j]
			}
		}
	}
	return inv, nil
}

func swapRows(d []float64, n, i, j int) {
	ri, rj := d[i*n:(i+1)*n], d[j*n:(j+1)*n]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Cholesky returns the lower-triangular L with a = L·Lᵀ for a symmetric
// positive-definite a. It returns ErrSingular when a is not positive
// definite to working precision.
func Cholesky(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("%w: Cholesky of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	l := Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("%w: Cholesky pivot %d = %g", ErrSingular, i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves a·x = b for SPD a using its Cholesky factor. b may
// have multiple columns.
func SolveCholesky(a, b *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	if b.rows != n {
		return nil, fmt.Errorf("%w: SolveCholesky rhs %dx%d", ErrShape, b.rows, b.cols)
	}
	x := b.Clone()
	// Forward substitution: L·y = b.
	for c := 0; c < x.cols; c++ {
		for i := 0; i < n; i++ {
			s := x.At(i, c)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
		// Back substitution: Lᵀ·x = y.
		for i := n - 1; i >= 0; i-- {
			s := x.At(i, c)
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
	}
	return x, nil
}

// SVD holds a thin singular value decomposition a = U·diag(S)·Vᵀ where U is
// m×r, S has r = min(m,n) entries in descending order, and V is n×r.
type SVD struct {
	U *Dense
	S []float64
	V *Dense
}

// SVDDecompose computes a thin SVD by one-sided Jacobi rotations applied to
// the columns of a (transposing first when m < n). One-sided Jacobi is
// simple, numerically robust, and ample for OS-ELM-scale matrices.
func SVDDecompose(a *Dense) (*SVD, error) {
	m, n := a.rows, a.cols
	if m < n {
		// SVD(aᵀ) = V·S·Uᵀ: swap U and V.
		sv, err := SVDDecompose(a.T())
		if err != nil {
			return nil, err
		}
		return &SVD{U: sv.V, S: sv.S, V: sv.U}, nil
	}
	u := a.Clone() // becomes U·diag(S) column-wise
	v := Eye(n)    // accumulates right rotations
	const maxSweeps = 60
	eps := 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Compute the 2x2 Gram entries for columns p, q.
				var app, aqq, apq float64
				for i := 0; i < m; i++ {
					up, uq := u.At(i, p), u.At(i, q)
					app += up * up
					aqq += uq * uq
					apq += up * uq
				}
				if math.Abs(apq) <= eps*math.Sqrt(app*aqq) {
					continue
				}
				off += math.Abs(apq)
				// Jacobi rotation zeroing the (p,q) Gram entry.
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					up, uq := u.At(i, p), u.At(i, q)
					u.Set(i, p, c*up-s*uq)
					u.Set(i, q, s*up+c*uq)
				}
				for i := 0; i < n; i++ {
					vp, vq := v.At(i, p), v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if off == 0 {
			break
		}
	}
	// Extract singular values as column norms of u, normalize columns.
	s := make([]float64, n)
	for j := 0; j < n; j++ {
		var norm float64
		for i := 0; i < m; i++ {
			norm += u.At(i, j) * u.At(i, j)
		}
		norm = math.Sqrt(norm)
		s[j] = norm
		if norm > 0 {
			inv := 1 / norm
			for i := 0; i < m; i++ {
				u.Set(i, j, u.At(i, j)*inv)
			}
		}
	}
	// Sort descending by singular value (selection sort; n is small).
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if s[j] > s[best] {
				best = j
			}
		}
		if best != i {
			s[i], s[best] = s[best], s[i]
			swapCols(u, i, best)
			swapCols(v, i, best)
		}
	}
	return &SVD{U: u, S: s, V: v}, nil
}

func swapCols(m *Dense, i, j int) {
	for r := 0; r < m.rows; r++ {
		vi, vj := m.At(r, i), m.At(r, j)
		m.Set(r, i, vj)
		m.Set(r, j, vi)
	}
}

// PseudoInverse returns the Moore-Penrose pseudo-inverse a† = V·S⁺·Uᵀ,
// truncating singular values below rcond·σmax.
func PseudoInverse(a *Dense, rcond float64) (*Dense, error) {
	sv, err := SVDDecompose(a)
	if err != nil {
		return nil, err
	}
	if rcond <= 0 {
		rcond = 1e-12
	}
	var smax float64
	for _, s := range sv.S {
		if s > smax {
			smax = s
		}
	}
	cut := rcond * smax
	r := len(sv.S)
	// a† = V · diag(1/s) · Uᵀ, skipping truncated components.
	vs := Zeros(sv.V.Rows(), r)
	for j := 0; j < r; j++ {
		if sv.S[j] <= cut {
			continue
		}
		inv := 1 / sv.S[j]
		for i := 0; i < sv.V.Rows(); i++ {
			vs.Set(i, j, sv.V.At(i, j)*inv)
		}
	}
	return Mul(vs, sv.U.T()), nil
}

// LargestSingularValue estimates σmax(a) by power iteration on aᵀa. It
// converges geometrically with ratio (σ₂/σ₁)² and is the cheap runtime
// counterpart to the SVD the paper's Algorithm 1 uses at initialization.
func LargestSingularValue(a *Dense, iters int, seedVec []float64) float64 {
	n := a.cols
	if n == 0 || a.rows == 0 {
		return 0
	}
	v := make([]float64, n)
	if seedVec != nil && len(seedVec) == n {
		copy(v, seedVec)
	} else {
		for i := range v {
			v[i] = 1 / math.Sqrt(float64(n))
		}
	}
	if iters <= 0 {
		iters = 100
	}
	var sigma float64
	for it := 0; it < iters; it++ {
		// w = aᵀ(a v)
		av := MulVec(a, v)
		w := VecMul(av, a)
		norm := math.Sqrt(Dot(w, w))
		if norm == 0 {
			return 0
		}
		for i := range v {
			v[i] = w[i] / norm
		}
		next := math.Sqrt(norm)
		if it > 3 && math.Abs(next-sigma) <= 1e-12*next {
			sigma = next
			break
		}
		sigma = next
	}
	return sigma
}
