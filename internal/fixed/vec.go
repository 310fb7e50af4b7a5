package fixed

// Vector kernels: the multiply-accumulate loops of the FPGA datapath over
// contiguous slices. Each kernel is bit-identical to the scalar loop it
// replaces — the same saturating ops in the same order — and follows the
// nil-*Acct contract: a nil accumulator runs one tight loop over the plain
// arithmetic (the hot path: no call per op), a non-nil one calls the
// per-op accounted methods in that same order, so Ops, Saturations, NaNs
// and QuantErrAbs match the scalar accounted loop exactly.

// mulSat is q.Mul with the shift precomputed: f is the fraction width
// masked to the shift range, half its rounding pre-add.
func mulSat(x, y Fixed, f uint, half int64) int64 {
	p := (int64(x)*int64(y) + half) >> f
	if p > int64(Max) {
		return int64(Max)
	}
	if p < int64(Min) {
		return int64(Min)
	}
	return p
}

// shift returns the masked fraction width and rounding pre-add of q.
func (q QFormat) shift() (uint, int64) {
	f := q.frac() & 63
	return f, int64(1) << ((f - 1) & 63)
}

// DotQ returns acc + Σ x[i]·y[i] accumulated left to right with a
// saturating add after every saturating multiply:
// acc ← sat(acc + q.Mul(x[i], y[i])). y must be at least as long as x.
func (a *Acct) DotQ(q QFormat, acc Fixed, x, y []Fixed) Fixed {
	y = y[:len(x)]
	if a != nil {
		for i, xi := range x {
			acc = a.Add(acc, a.MulQ(q, xi, y[i]))
		}
		return acc
	}
	f, half := q.shift()
	for i, xi := range x {
		acc = sat64(int64(acc) + mulSat(xi, y[i], f, half))
	}
	return acc
}

// AddScaledQ updates dst[j] ← sat(dst[j] + q.Mul(s, x[j])) for every j
// of dst. x must be at least as long as dst.
func (a *Acct) AddScaledQ(q QFormat, dst []Fixed, s Fixed, x []Fixed) {
	x = x[:len(dst)]
	if a != nil {
		for j, xj := range x {
			dst[j] = a.Add(dst[j], a.MulQ(q, s, xj))
		}
		return
	}
	f, half := q.shift()
	for j, xj := range x {
		dst[j] = sat64(int64(dst[j]) + mulSat(s, xj, f, half))
	}
}

// SubScaledQ updates dst[j] ← sat(dst[j] − q.Mul(s, x[j])) for every j
// of dst. x must be at least as long as dst.
func (a *Acct) SubScaledQ(q QFormat, dst []Fixed, s Fixed, x []Fixed) {
	x = x[:len(dst)]
	if a != nil {
		for j, xj := range x {
			dst[j] = a.Sub(dst[j], a.MulQ(q, s, xj))
		}
		return
	}
	f, half := q.shift()
	for j, xj := range x {
		dst[j] = sat64(int64(dst[j]) - mulSat(s, xj, f, half))
	}
}
