package pow

import (
	"math"
	"math/rand"
	"testing"
)

// TestFixedPowBitsEqualMathPow holds the fixed-base power to math.Pow bit
// for bit: around every exponent Pow special-cases or where its integer /
// fraction split changes, over the physical ranges of the ocean's
// (tC−20)/10 and the land's (tC−25)/10 — the latter from −70 °C, below
// the unrolled range, so through the fallback too — over the whole
// unrolled range, and for bases Pow special-cases.
func TestFixedPowBitsEqualMathPow(t *testing.T) {
	check := func(fp *Fixed, y float64) {
		t.Helper()
		got, want := fp.Pow(y), math.Pow(fp.Base(), y)
		if math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Pow(%v, %v) = %v (%#x), math.Pow gives %v (%#x)", fp.Base(), y,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, x := range []float64{1.9, 2, 2.2, 2.5, 0.5, 0.3, 1 + 0x1p-52, 1 - 0x1p-53, 3e9, 7e-8, 0x1.8p63, 0x1p-65} {
		fp := NewFixed(x)
		if fp.lim == 0 {
			t.Fatalf("base %v not unrolled", x)
		}
		for _, y0 := range []float64{0, 0.5, -0.5, 1, -1, 1.5, -1.5, 2, -2, 2.5, 3, -3, 3.5, 4, 5, 6, 7, 7.5, -7.5, limit, -limit} {
			up, dn := y0, y0
			for j := 0; j < 40; j++ {
				check(&fp, up)
				check(&fp, dn)
				up, dn = math.Nextafter(up, math.Inf(1)), math.Nextafter(dn, math.Inf(-1))
			}
		}
		for _, y := range []float64{math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, 0x1p-53, 1 - 0x1p-53,
			math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1 << 62, 1 << 63, -(1 << 63), 1025, -1075, 2000.5} {
			check(&fp, y)
		}
		n := 200000
		switch x {
		case 1.9, 2, 2.2:
			n = 1000000
		}
		for j := 0; j < n; j++ {
			check(&fp, -2.2+3.2*rng.Float64()) // (tC−20)/10 for −2…30 °C
		}
		for j := 0; j < n; j++ {
			check(&fp, (-70+130*rng.Float64()-25)/10) // (tC−25)/10 for −70…60 °C
		}
		for j := 0; j < 200000; j++ {
			check(&fp, 2*limit*(rng.Float64()-0.5)*1.1)
		}
	}
	// Bases math.Pow special-cases, or whose squarings could reach its
	// exponent guard, are not unrolled at all.
	for _, x := range []float64{1, 0, math.Copysign(0, -1), -1, -1.9, math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e-300, 1e300, math.MaxFloat64, 0x1p64, 0x1.fp-66} {
		fp := NewFixed(x)
		if fp.lim != 0 {
			t.Fatalf("base %v unrolled", x)
		}
		for _, y := range []float64{0, 1, 0.5, -0.5, -1, 2, 3, -3, 0.3, -2.7, math.NaN(), math.Inf(1), math.Inf(-1)} {
			check(&fp, y)
		}
	}
	var zero Fixed
	check(&zero, 2.5)
}
