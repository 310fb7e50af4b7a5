package fixed

import (
	"math/rand"
	"testing"
)

// checkVecKernels runs DotQ, AddScaledQ and SubScaledQ on (acc, s, x, y)
// and compares them with the scalar per-op loops they replace: the words
// of the nil-Acct kernel, the accounted kernel and the plain scalar loop
// must agree, and the accounted kernel's counters must equal those of the
// per-op accounted loop exactly — QuantErrAbs included, since the kernels
// issue the same ops in the same order.
func checkVecKernels(t *testing.T, q QFormat, acc, s Fixed, x, y []Fixed) {
	t.Helper()
	y = y[:len(x)]

	want := acc
	var refAcct Acct
	wantAcct := acc
	for i := range x {
		want = Add(want, q.Mul(x[i], y[i]))
		wantAcct = refAcct.Add(wantAcct, refAcct.MulQ(q, x[i], y[i]))
	}
	var kAcct Acct
	gotNil := (*Acct)(nil).DotQ(q, acc, x, y)
	gotAcct := kAcct.DotQ(q, acc, x, y)
	if gotNil != want || gotAcct != want || wantAcct != want {
		t.Fatalf("%v DotQ: nil %d, accounted %d, scalar %d (accounted scalar %d)", q, gotNil, gotAcct, want, wantAcct)
	}
	if kAcct != refAcct {
		t.Fatalf("%v DotQ accounting %+v, per-op reference %+v", q, kAcct, refAcct)
	}

	for _, sub := range []bool{false, true} {
		ref := append([]Fixed(nil), y...)
		refAcctDst := append([]Fixed(nil), y...)
		refAcct = Acct{}
		for j := range ref {
			if sub {
				ref[j] = Sub(ref[j], q.Mul(s, x[j]))
				refAcctDst[j] = refAcct.Sub(refAcctDst[j], refAcct.MulQ(q, s, x[j]))
			} else {
				ref[j] = Add(ref[j], q.Mul(s, x[j]))
				refAcctDst[j] = refAcct.Add(refAcctDst[j], refAcct.MulQ(q, s, x[j]))
			}
		}
		nilDst := append([]Fixed(nil), y...)
		acctDst := append([]Fixed(nil), y...)
		kAcct = Acct{}
		if sub {
			(*Acct)(nil).SubScaledQ(q, nilDst, s, x)
			kAcct.SubScaledQ(q, acctDst, s, x)
		} else {
			(*Acct)(nil).AddScaledQ(q, nilDst, s, x)
			kAcct.AddScaledQ(q, acctDst, s, x)
		}
		for j := range ref {
			if nilDst[j] != ref[j] || acctDst[j] != ref[j] || refAcctDst[j] != ref[j] {
				t.Fatalf("%v scaled update (sub=%v) [%d]: nil %d, accounted %d, scalar %d",
					q, sub, j, nilDst[j], acctDst[j], ref[j])
			}
		}
		if kAcct != refAcct {
			t.Fatalf("%v scaled update (sub=%v) accounting %+v, per-op reference %+v", q, sub, kAcct, refAcct)
		}
	}
}

// randWord draws a word that is often at or near a rail, so products and
// accumulations saturate, and otherwise a value of a few units in q.
func randWord(r *rand.Rand, q QFormat) Fixed {
	switch r.Intn(6) {
	case 0:
		return Fixed(Max) - Fixed(r.Intn(3))
	case 1:
		return Fixed(Min) + Fixed(r.Intn(3))
	case 2:
		return Fixed(r.Int31() - r.Int31())
	default:
		return Fixed(r.Int63n(8*int64(q.One())) - 4*int64(q.One()))
	}
}

// TestVecKernelsMatchScalarReference is the differential test of the
// vector kernels against the per-op loops, across the sweep formats and
// the zero (default) format, lengths from empty to past a hidden width,
// and inputs that saturate at both rails.
func TestVecKernelsMatchScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, q := range []QFormat{{}, Q16, Q20, Q24} {
		for trial := 0; trial < 300; trial++ {
			n := r.Intn(70)
			x, y := make([]Fixed, n), make([]Fixed, n+r.Intn(3))
			for i := range x {
				x[i] = randWord(r, q)
			}
			for i := range y {
				y[i] = randWord(r, q)
			}
			checkVecKernels(t, q, randWord(r, q), randWord(r, q), x, y)
		}
	}
}

// TestVecKernelsSaturate pins the rail behaviour directly: a dot product
// that overflows clamps and keeps accumulating from the rail, and the
// accounted kernel counts the clamps.
func TestVecKernelsSaturate(t *testing.T) {
	one := Q20.One()
	x := []Fixed{Fixed(Max), Fixed(Max), -one}
	y := []Fixed{2 * one, 2 * one, one}
	var a Acct
	got := a.DotQ(Q20, 0, x, y)
	if want := Fixed(Max) - one; got != want {
		t.Errorf("saturating dot = %d, want %d", got, want)
	}
	// Both products clamp, and the second add clamps again.
	if a.Ops != 6 || a.Saturations != 3 {
		t.Errorf("accounting %+v, want 6 ops and 3 saturations", a)
	}
	dst := []Fixed{Fixed(Min)}
	(*Acct)(nil).SubScaledQ(Q20, dst, one, []Fixed{one})
	if dst[0] != Fixed(Min) {
		t.Errorf("Min − 1 = %d, want the Min rail", dst[0])
	}
}

// TestVecKernelsDoNotAllocate pins both accounting states of the kernels
// at zero allocations.
func TestVecKernelsDoNotAllocate(t *testing.T) {
	x := []Fixed{1 << 20, 2 << 20, 3 << 20}
	dst := make([]Fixed, 3)
	for _, a := range []*Acct{nil, {}} {
		if allocs := testing.AllocsPerRun(100, func() {
			a.DotQ(Q24, 0, x, x)
			a.AddScaledQ(Q24, dst, 1<<20, x)
			a.SubScaledQ(Q24, dst, 1<<20, x)
		}); allocs != 0 {
			t.Errorf("kernels (accounting %v) allocate %g per run", a.Enabled(), allocs)
		}
	}
}
