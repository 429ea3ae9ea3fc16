package atmos

import (
	"math"
	"math/rand"
	"testing"
)

// TestThermoBitsEqualMathPow holds ExnerFromRhoTheta, Pressure and teq to
// the math.Pow expressions they replaced (refExner, refPressure, refTEq in
// oracle_test.go), bit for bit.
//
// Why they agree: the portable math.Pow(x, y) splits |y| with Modf into
// yi + yf, computes a1 = Exp(yf·Log(x)), multiplies in x^yi by successive
// squarings of Frexp(x) and returns Ldexp(a1, ae). For y = Rd/Cvd = 0.4 and
// y = Rd/Cpd = 2/7, yi = 0: the squaring loop does not run, ae stays 0 and
// Ldexp(·, 0) is the identity, so Pow is Exp(y·Log(x)). For y = Cpd/Rd =
// 3.5, yi = 3 and yf = ½ (not > ½, so no borrow): Exp(½·Log(x)) times the
// two mantissa products of bits 0 and 1 of 3. That holds on every port
// whose math.Pow is the portable pow — all but s390x. On a port or Go
// release where it stops holding this test is what says so; the model
// keeps its own bits either way.
func TestThermoBitsEqualMathPow(t *testing.T) {
	hs := DefaultHeldSuarez()
	// Each function against its reference; arg maps a target Pow argument
	// to the function's input (Rd·ρθ/P0, Π, p/P0), lo–hi is the physical
	// range of that argument.
	funcs := []struct {
		name      string
		got, want func(float64) float64
		arg       float64
		lo, hi    float64
	}{
		{"ExnerFromRhoTheta", ExnerFromRhoTheta, refExner, P0 / Rd, 5e-4, 2},
		{"Pressure", Pressure, refPressure, 1, 0.05, 1.25},
		{"teq", func(p float64) float64 { return hs.teq(0.3, 0.7, p) },
			func(p float64) float64 { return refTEq(hs, 0.3, 0.7, p) }, P0, 1e-3, 1.2},
	}
	for _, f := range funcs {
		check := func(in float64) {
			g, w := f.got(in), f.want(in)
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("%s(%x) = %x, math.Pow form gives %x", f.name, in, g, w)
			}
		}
		// (i) every float64 around 1 and ½: Pow special-cases x == 1, and
		// Frexp's mantissa crosses its [½, 1) boundary there. The input
		// neighbourhood is twice the ±2000 ulps asked of the argument, so
		// the scaling by arg cannot narrow it below that.
		for _, centre := range []float64{1, 0.5} {
			in := centre * f.arg
			for i := 0; i < 4000; i++ {
				in = math.Nextafter(in, 0)
			}
			for i := 0; i < 8000; i++ {
				check(in)
				in = math.Nextafter(in, math.Inf(1))
			}
		}
		// (ii) the physical range, (iii) the whole exponent range.
		rng := rand.New(rand.NewSource(19))
		for i := 0; i < 1_000_000; i++ {
			check(f.arg * (f.lo + (f.hi-f.lo)*rng.Float64()))
			check(f.arg * math.Pow(10, -300+600*rng.Float64()))
		}
		// (iv) the ends of the domain, and what lies outside it.
		for _, in := range []float64{0, f.arg, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, math.Inf(1), -1, -0.3, math.NaN()} {
			check(in)
		}
	}
	// The two inputs where the unrolled forms part from math.Pow, pinned as
	// they are (both outside the domain, see the doc comments).
	if g := pow35(math.Copysign(0, -1)); g != 0 || !math.Signbit(g) || math.Signbit(math.Pow(math.Copysign(0, -1), 3.5)) {
		t.Errorf("pow35(-0) = %v (math.Pow: %v), want -0 against +0", g, math.Pow(math.Copysign(0, -1), 3.5))
	}
	for _, f := range funcs[:2] { // teq's ΔZ·Log σ term is NaN in both forms
		if g, w := f.got(math.Inf(-1)), f.want(math.Inf(-1)); !math.IsNaN(g) || !math.IsInf(w, 1) {
			t.Errorf("%s(-Inf) = %v (math.Pow form: %v), want NaN against +Inf", f.name, g, w)
		}
	}
}
