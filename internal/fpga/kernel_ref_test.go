package fpga

import (
	"math"
	"math/rand"
	"testing"

	"oselmrl/internal/fixed"
)

// refCore is the scalar reference datapath: predict and seq_train written
// as one accounted op at a time over (i, j) element access, each op
// counting itself and its cycles on its unit. The Core's row kernels must
// reproduce its words, per-unit ops and cycles, and accounting counts
// exactly.
type refCore struct {
	alpha, beta, p *fixed.Matrix
	bias           []fixed.Fixed
	q              fixed.QFormat
	model          CycleModel
	ops, cyc       unitOps
	acct           *fixed.Acct
	trips          int64
}

func newRefCore(c *Core) *refCore {
	return &refCore{
		alpha: c.Alpha.Clone(), beta: c.Beta.Clone(), p: c.P.Clone(),
		bias: append([]fixed.Fixed(nil), c.Bias...), q: c.q, model: c.model,
		acct: &fixed.Acct{},
	}
}

// count books one op on unit u taking lat cycles.
func (r *refCore) count(u ProfUnit, lat int64) {
	r.ops[u]++
	r.cyc[u] += lat
}

func (r *refCore) cycles() int64 {
	var t int64
	for _, c := range r.cyc {
		t += c
	}
	return t
}

func (r *refCore) add(a, b fixed.Fixed) fixed.Fixed {
	r.count(UnitAdd, r.model.Add)
	return r.acct.Add(a, b)
}

func (r *refCore) sub(a, b fixed.Fixed) fixed.Fixed {
	r.count(UnitAdd, r.model.Add)
	return r.acct.Sub(a, b)
}

func (r *refCore) mul(a, b fixed.Fixed) fixed.Fixed {
	r.count(UnitMul, r.model.Mul)
	return r.acct.MulQ(r.q, a, b)
}

func (r *refCore) hidden(x []fixed.Fixed) []fixed.Fixed {
	r.count(UnitInvoke, r.model.InvokeOverhead)
	h := make([]fixed.Fixed, r.alpha.Cols())
	for j := range h {
		acc := r.bias[j]
		for i := range x {
			acc = r.add(acc, r.mul(x[i], r.alpha.At(i, j)))
		}
		h[j] = fixed.ReLU(acc)
	}
	return h
}

func (r *refCore) predict(x []fixed.Fixed) []fixed.Fixed {
	h := r.hidden(x)
	out := make([]fixed.Fixed, r.beta.Cols())
	for o := range out {
		for j := range h {
			out[o] = r.add(out[o], r.mul(h[j], r.beta.At(j, o)))
		}
	}
	return out
}

func (r *refCore) seqTrain(x, t []fixed.Fixed) {
	h := r.hidden(x)
	n := len(h)
	ph := make([]fixed.Fixed, n)
	for i := range ph {
		for j := range h {
			ph[i] = r.add(ph[i], r.mul(r.p.At(i, j), h[j]))
		}
	}
	denom := r.q.One()
	for j := range h {
		denom = r.add(denom, r.mul(h[j], ph[j]))
	}
	if denom < r.q.One()/2 {
		r.trips++
		return
	}
	r.count(UnitDiv, r.model.Div)
	s := r.acct.DivQ(r.q, r.q.One(), denom)
	g := make([]fixed.Fixed, n)
	for i := range g {
		g[i] = r.mul(s, ph[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.p.Set(i, j, r.sub(r.p.At(i, j), r.mul(g[i], ph[j])))
		}
	}
	for o := 0; o < r.beta.Cols(); o++ {
		var pred fixed.Fixed
		for j := range h {
			pred = r.add(pred, r.mul(h[j], r.beta.At(j, o)))
		}
		e := r.sub(t[o], pred)
		for j := range h {
			r.beta.Set(j, o, r.add(r.beta.At(j, o), r.mul(g[j], e)))
		}
	}
}

func sameWords(a, b *fixed.Matrix) bool {
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if a.At(i, j) != b.At(i, j) {
				return false
			}
		}
	}
	return true
}

// TestCoreMatchesScalarReference drives the Core and the scalar reference
// with the same random parameters and inputs — several outputs wide, in
// each sweep format and cycle model, with P scaled up until updates
// saturate and trip the denominator guard — and requires identical
// outputs, BRAM words, per-unit ops and cycles (from the core's profile),
// guard trips and accounting counts after every step.
//
// QuantErrAbs is compared within a bound, not exactly: the row kernels
// visit the hidden pass input-major and the reference hidden-major, and
// for more than one output the β update row-major, so the same
// nonnegative rounding errors are summed in a different order. Each
// float64 sum of N nonnegative terms is within (N−1)·2⁻⁵³ of the exact sum
// relative to it, so two orders differ by at most 2·N·2⁻⁵³ of the total.
func TestCoreMatchesScalarReference(t *testing.T) {
	for _, model := range []CycleModel{DefaultCycleModel(), PipelinedCycleModel()} {
		testCoreMatchesScalarReference(t, model)
	}
}

func testCoreMatchesScalarReference(t *testing.T, model CycleModel) {
	r := rand.New(rand.NewSource(7))
	trips := int64(0)
	for _, q := range []fixed.QFormat{fixed.Q16, fixed.Q20, fixed.Q24} {
		for _, dims := range [][3]int{{5, 8, 1}, {3, 6, 3}, {4, 16, 2}} {
			in, hid, out := dims[0], dims[1], dims[2]
			c := NewCoreQ(in, hid, out, model, q)
			c.EnableAccounting()
			c.EnableProfiling()
			word := func(scale float64) fixed.Fixed { return q.FromFloat(scale * (2*r.Float64() - 1)) }
			for i := 0; i < in; i++ {
				for j := 0; j < hid; j++ {
					c.Alpha.Set(i, j, word(1))
				}
			}
			for j := 0; j < hid; j++ {
				c.Bias[j] = word(0.5)
				for o := 0; o < out; o++ {
					c.Beta.Set(j, o, word(1))
				}
				for k := 0; k < hid; k++ {
					c.P.Set(j, k, word(0.1))
				}
				c.P.Set(j, j, q.FromFloat(2))
			}
			ref := newRefCore(c)
			for step := 0; step < 40; step++ {
				if step == 20 {
					// Blow P up to the rails: the updates saturate, and
					// a negative-definite P trips the guard.
					for i := 0; i < hid; i++ {
						for j := 0; j < hid; j++ {
							v := word(1e4)
							c.P.Set(i, j, v)
							ref.p.Set(i, j, v)
						}
					}
				}
				x := make([]fixed.Fixed, in)
				for i := range x {
					x[i] = word(2)
				}
				tgt := make([]fixed.Fixed, out)
				for o := range tgt {
					tgt[o] = word(1)
				}
				got, want := c.Predict(x), ref.predict(x)
				for o := range want {
					if got[o] != want[o] {
						t.Fatalf("%v %v step %d: predict[%d] = %d, reference %d", q, dims, step, o, got[o], want[o])
					}
				}
				c.SeqTrain(x, tgt)
				ref.seqTrain(x, tgt)
				if !sameWords(c.P, ref.p) || !sameWords(c.Beta, ref.beta) {
					t.Fatalf("%v %v step %d: BRAM words diverged from the reference", q, dims, step)
				}
				if c.Cycles() != ref.cycles() || c.DenomGuardTrips() != ref.trips {
					t.Fatalf("%+v %v %v step %d: cycles %d trips %d, reference %d and %d",
						model, q, dims, step, c.Cycles(), c.DenomGuardTrips(), ref.cycles(), ref.trips)
				}
				for u := ProfUnit(0); u < NumProfUnits; u++ {
					if ops, cyc := c.Prof().UnitOps(u), c.Prof().UnitCycles(u); ops != ref.ops[u] || cyc != ref.cyc[u] {
						t.Fatalf("%+v %v %v step %d: unit %v ran %d ops in %d cycles, reference %d in %d",
							model, q, dims, step, u, ops, cyc, ref.ops[u], ref.cyc[u])
					}
				}
			}
			var got fixed.Acct
			c.PredictAcct().AddTo(&got)
			c.SeqTrainAcct().AddTo(&got)
			want := *ref.acct
			if got.Ops != want.Ops || got.Saturations != want.Saturations || got.NaNs != want.NaNs {
				t.Errorf("%v %v: accounting %+v, reference %+v", q, dims, got, want)
			}
			if bound := 2 * float64(want.Ops) * 0x1p-53 * want.QuantErrAbs; math.Abs(got.QuantErrAbs-want.QuantErrAbs) > bound {
				t.Errorf("%v %v: QuantErrAbs %g, reference %g (bound %g)", q, dims, got.QuantErrAbs, want.QuantErrAbs, bound)
			}
			if want.Saturations == 0 {
				t.Errorf("%v %v: the run never saturated", q, dims)
			}
			trips += ref.trips
		}
	}
	if trips == 0 {
		t.Errorf("%+v: no update tripped the denominator guard", model)
	}
}
