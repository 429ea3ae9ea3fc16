package bgc

import (
	"math/rand"
	"testing"
)

func BenchmarkEcosystemKernel(b *testing.B) {
	oc, _, s := testSetup()
	sw, _, _, _ := surfaceFields(oc)
	p := DefaultParams()
	b.SetBytes(int64(8 * NumTracers * oc.NOcean() * oc.NLev))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EcosystemKernel(600, &p, sw)
	}
}

func BenchmarkSinkingKernel(b *testing.B) {
	oc, _, s := testSetup()
	p := DefaultParams()
	b.SetBytes(int64(8 * 3 * oc.NOcean() * oc.NLev))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SinkingKernel(600, &p)
	}
}

var carbonateSink float64

// BenchmarkCarbonateSolver times one solve per op over inputs that vary
// from solve to solve, as the kernel's do: "closed" is the production
// root, "bisection" the retired 60-step solver (with one fixed triple the
// branch predictor would learn all 60 of its outcomes).
func BenchmarkCarbonateSolver(b *testing.B) {
	const n = 1 << 10
	rng := rand.New(rand.NewSource(1))
	var dic, alk, tC [n]float64
	for i := range dic {
		dic[i] = 1.9 + 0.4*rng.Float64()
		alk[i] = dic[i] * (1.05 + 0.1*rng.Float64())
		tC[i] = -2 + 32*rng.Float64()
	}
	for name, solve := range map[string]func(dic, alk, tC float64) (h, co2 float64){
		"closed": SolveCarbonate, "bisection": oracleSolveCarbonate,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				j := i % n
				_, co2 := solve(dic[j], alk[j], tC[j])
				carbonateSink += co2
			}
		})
	}
}

func BenchmarkAirSeaFlux(b *testing.B) {
	oc, _, s := testSetup()
	_, pco2, wind, ice := surfaceFields(oc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AirSeaFluxKernel(600, pco2, wind, ice)
	}
}
