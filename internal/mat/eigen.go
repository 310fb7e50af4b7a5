package mat

import (
	"fmt"
	"math"
)

// SymEigen computes the eigendecomposition of a symmetric matrix by the
// classical cyclic Jacobi method: a = V·diag(λ)·Vᵀ with eigenvalues in
// descending order and orthonormal V columns. Used for diagnostics on
// OS-ELM's P matrix (its eigenvalue floor tracks learning-rate collapse).
func SymEigen(a *Dense) (values []float64, vectors *Dense, err error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("%w: SymEigen of %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	w := a.Clone()
	v := Eye(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				tau := (aqq - app) / (2 * apq)
				var t float64
				if tau >= 0 {
					t = 1 / (tau + math.Sqrt(1+tau*tau))
				} else {
					t = -1 / (-tau + math.Sqrt(1+tau*tau))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				// Rotate rows/cols p and q of w.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				// Accumulate rotations into v.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
	}
	// Sort descending by eigenvalue, permuting V's columns.
	for i := 0; i < n-1; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if values[j] > values[best] {
				best = j
			}
		}
		if best != i {
			values[i], values[best] = values[best], values[i]
			swapCols(v, i, best)
		}
	}
	return values, v, nil
}
