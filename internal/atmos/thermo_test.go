package atmos

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// thermoInputs calls check on inputs around arg·1 and arg·½ (every float64
// within ±2000 ulps of the argument), n draws over arg·[lo, hi] and n over
// the whole exponent range, and the ends of the domain with what lies
// outside it.
func thermoInputs(arg, lo, hi float64, n int, check func(in float64)) {
	// Pow special-cases x == 1, and Frexp's mantissa crosses its [½, 1)
	// boundary there. The input neighbourhood is twice the ±2000 ulps asked
	// of the argument, so the scaling by arg cannot narrow it below that.
	for _, centre := range []float64{1, 0.5} {
		in := centre * arg
		for i := 0; i < 4000; i++ {
			in = math.Nextafter(in, 0)
		}
		for i := 0; i < 8000; i++ {
			check(in)
			in = math.Nextafter(in, math.Inf(1))
		}
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		check(arg * (lo + (hi-lo)*rng.Float64()))
		check(arg * math.Pow(10, -300+600*rng.Float64()))
	}
	for _, in := range []float64{0, arg, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64, math.Inf(1), -1, -0.3, math.NaN()} {
		check(in)
	}
}

// TestThermoBitsEqualMathPow holds ExnerFromRhoTheta to the math.Pow
// expression it replaced (refExner in oracle_test.go), bit for bit.
//
// Why they agree: the portable math.Pow(x, y) splits |y| with Modf into
// yi + yf, computes a1 = Exp(yf·Log(x)), multiplies in x^yi by successive
// squarings of Frexp(x) and returns Ldexp(a1, ae). For y = Rd/Cvd = 0.4,
// yi = 0: the squaring loop does not run, ae stays 0 and Ldexp(·, 0) is the
// identity, so Pow is Exp(y·Log(x)). That holds on every port whose
// math.Pow is the portable pow — all but s390x. On a port or Go release
// where it stops holding this test is what says so; the model keeps its own
// bits either way.
func TestThermoBitsEqualMathPow(t *testing.T) {
	thermoInputs(P0/Rd, 5e-4, 2, 1_000_000, func(in float64) {
		g, w := ExnerFromRhoTheta(in), refExner(in)
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("ExnerFromRhoTheta(%x) = %x, math.Pow form gives %x", in, g, w)
		}
	})
	// The one input where the form parts from math.Pow, pinned as it is
	// (outside the domain, see the doc comment).
	if g, w := ExnerFromRhoTheta(math.Inf(-1)), refExner(math.Inf(-1)); !math.IsNaN(g) || !math.IsInf(w, 1) {
		t.Errorf("ExnerFromRhoTheta(-Inf) = %v (math.Pow form: %v), want NaN against +Inf", g, w)
	}
}

// ulpsApart is the distance between two finite float64 of one sign in
// units in the last place.
func ulpsApart(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	return max(d, -d)
}

// TestThermoNearMathPow holds the two functions the §17 re-baseline took
// off math.Pow to the retired forms (powPressure, powTEq in oracle_test.go)
// within a named distance.
//
// Pressure is P0·Π³·√Π, five correctly rounded operations: it stays within
// 3 ulp of the correctly rounded P0·Π^3.5, where P0·math.Pow(Π, 3.5) itself
// strays as far, and within 6 ulp of the latter (5 seen over 10⁶ draws)
// for Π in the model's range, 0.05 to 1.25.
// teq takes Log σ as 3.5·Log Π and σ^κ as Π, so it sees the retired form's
// pressure rounding and two Pow roundings less: 2e-15 relative (4.3e-16 seen).
func TestThermoNearMathPow(t *testing.T) {
	const maxFromPow, maxFromExact = 6, 3
	var seenPow int64
	thermoInputs(1, 0.05, 1.25, 1_000_000, func(in float64) {
		g, w := Pressure(in), powPressure(in)
		switch {
		case !(in > 0) || math.IsInf(in, 1): // 0, +Inf; NaN and negative Π give NaN
			if g != w && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("Pressure(%x) = %v, math.Pow form gives %v", in, g, w)
			}
		case w < 0x1p-900 || w > 0x1p900:
			// Π³ leaves the normal range before Π^3.5 does.
		case in < 0.05 || in > 1.25:
			// Outside the model's range of Π the error of Pow's Exp(½·Log Π)
			// grows with |Log Π|; the products' does not.
			if rel := math.Abs(g-w) / w; rel > 1e-12 {
				t.Fatalf("Pressure(%x) = %v, math.Pow form gives %v (relative %v)", in, g, w, rel)
			}
		default:
			d := ulpsApart(g, w)
			seenPow = max(seenPow, d)
			if d > maxFromPow {
				t.Fatalf("Pressure(%x) = %x, %d ulp from the math.Pow form %x (allowed %d)", in, g, d, w, maxFromPow)
			}
		}
	})
	t.Logf("Pressure: up to %d ulp from P0·math.Pow(Π, 3.5)", seenPow)

	rng := rand.New(rand.NewSource(23))
	var seenExact, powExact int64
	for i := 0; i < 100_000; i++ {
		x := 0.05 + 1.2*rng.Float64()
		bx := new(big.Float).SetPrec(200).SetFloat64(x)
		r := new(big.Float).SetPrec(200).Sqrt(bx)
		for _, f := range []*big.Float{bx, bx, bx, big.NewFloat(P0)} {
			r.Mul(r, f)
		}
		exact, _ := r.Float64()
		seenExact = max(seenExact, ulpsApart(Pressure(x), exact))
		powExact = max(powExact, ulpsApart(powPressure(x), exact))
	}
	if seenExact > maxFromExact {
		t.Errorf("Pressure strays %d ulp from the correctly rounded value (allowed %d)", seenExact, maxFromExact)
	}
	t.Logf("from the correctly rounded value: Pressure ≤ %d ulp, math.Pow form ≤ %d ulp", seenExact, powExact)

	hs := DefaultHeldSuarez()
	var seenRel float64
	for i := 0; i < 1_000_000; i++ {
		x := 0.05 + 1.2*rng.Float64()
		cos2 := rng.Float64()
		g, w := hs.teq(cos2, 1-cos2, x), powTEq(hs, cos2, 1-cos2, powPressure(x))
		rel := math.Abs(g-w) / w
		seenRel = math.Max(seenRel, rel)
		if !(rel <= 2e-15) {
			t.Fatalf("teq(cos²=%v, Π=%x) = %v, retired form %v (relative %v, allowed 2e-15)", cos2, x, g, w, rel)
		}
	}
	t.Logf("teq: up to %.2g relative from the retired Log σ / Pow form", seenRel)
}
