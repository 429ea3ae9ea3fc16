// Package pow holds math.Pow for a base fixed ahead of the calls, bit-equal
// to math.Pow and cheaper: the temperature responses of the biosphere and
// the ocean ecosystem (Q10 laws, base^((T−T₀)/10)) raise one constant base
// to a new exponent per cell.
package pow

import "math"

// limit bounds the exponents Fixed unrolls: |y| < 8 leaves Pow at most
// four squarings of the base (the integer part after its round-up reaches
// 8), which is what the m and e tables hold. (T−T₀)/10 stays inside ±8
// for any liquid ocean and for land temperatures above −55 °C.
const limit = 8

// Fixed is math.Pow(x, ·) for one base x, with everything Pow derives from
// x alone computed once: Log(x), Sqrt(x) and its reciprocal for the
// y = ±½ special cases, and the mantissa/exponent pairs Pow's squaring
// loop walks through (Frexp(x), then each renormalised square). Pow runs
// Pow's remaining arithmetic on y in Pow's order, so the bits are Pow's
// own (pure-Go Pow, that is: s390x has an assembly Pow the tests would
// have to vouch for). The zero value is the base 0, every power of which
// goes to math.Pow.
type Fixed struct {
	x, log, sqrt, rsqrt float64
	m                   [4]float64 // mantissa of x^(2^j), in [½, 1)
	e                   [4]int     // its binary exponent
	// lim is limit, or 0 for a base every exponent of which goes to
	// math.Pow: one Pow special-cases (x ≤ 0, 1, +Inf, NaN) or outside
	// 2^±64, so that no squared exponent nears Pow's overflow guard at 2¹²
	// and every result is a normal number.
	lim float64
}

// NewFixed builds the table of base x.
func NewFixed(x float64) Fixed {
	t := Fixed{x: x}
	x1, xe := math.Frexp(x)
	if !(x > 0) || x == 1 || math.IsInf(x, 1) || xe < -64 || xe > 64 {
		return t
	}
	t.lim = limit
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

// Base returns the base x the table was built for.
func (t *Fixed) Base() float64 { return t.x }

// Pow returns math.Pow(x, y).
func (t *Fixed) Pow(y float64) float64 {
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
