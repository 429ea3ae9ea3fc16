package bgc

import "math"

// fixedPowLim bounds the exponents fixedPow unrolls: |y| < 8 leaves Pow at
// most four squarings of the base (the integer part after its round-up
// reaches 8), which is what the m and e tables hold. (tC−20)/10 stays
// inside ±4 for any liquid ocean.
const fixedPowLim = 8

// fixedPow is math.Pow(x, ·) for one base x, with everything Pow derives
// from x alone computed once: Log(x), Sqrt(x) and its reciprocal for the
// y = ±½ special cases, and the mantissa/exponent pairs Pow's squaring
// loop walks through (Frexp(x), then each renormalised square). pow runs
// Pow's remaining arithmetic on y in Pow's order, so the bits are Pow's
// own (pure-Go Pow, that is: s390x has an assembly Pow the oracle tests
// would have to vouch for).
type fixedPow struct {
	x, log, sqrt, rsqrt float64
	m                   [4]float64 // mantissa of x^(2^j), in [½, 1)
	e                   [4]int     // its binary exponent
	// lim is fixedPowLim, or 0 for a base every exponent of which goes to
	// math.Pow: one Pow special-cases (x ≤ 0, 1, +Inf, NaN) or outside
	// 2^±64, so that no squared exponent nears Pow's overflow guard at 2¹²
	// and every result is a normal number.
	lim float64
}

func newFixedPow(x float64) fixedPow {
	t := fixedPow{x: x}
	x1, xe := math.Frexp(x)
	if !(x > 0) || x == 1 || math.IsInf(x, 1) || xe < -64 || xe > 64 {
		return t
	}
	t.lim = fixedPowLim
	t.log = math.Log(x)
	t.sqrt = math.Sqrt(x)
	t.rsqrt = 1 / math.Sqrt(x)
	for j := range t.m {
		t.m[j], t.e[j] = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return t
}

// pow returns math.Pow(t.x, y).
func (t *fixedPow) pow(y float64) float64 {
	if !(-t.lim < y && y < t.lim) { // also NaN
		return math.Pow(t.x, y)
	}
	switch y {
	case 0:
		return 1
	case 1:
		return t.x
	case 0.5:
		return t.sqrt
	case -0.5:
		return t.rsqrt
	}
	// Modf(Abs(y)): exact either way below 2⁵³.
	ay := math.Abs(y)
	yi := int(ay)
	yf := ay - float64(yi)
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * t.log)
	}
	for j := 0; yi != 0; yi, j = yi>>1, j+1 {
		if yi&1 == 1 {
			a1 *= t.m[j]
			ae += t.e[j]
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	// Ldexp(a1, ae): 2^ae is a normal number here (|ae| ≤ 8·65), and
	// scaling by one is a single correctly rounded multiplication of the
	// value Ldexp rounds, so the product is Ldexp's result.
	return a1 * math.Float64frombits(uint64(ae+1023)<<52)
}
