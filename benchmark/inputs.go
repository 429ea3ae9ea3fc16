package main

import (
	"math"
	"math/rand"

	"icoearth/internal/coupler"
	"icoearth/internal/grid"
	"icoearth/internal/ocean"
)

// This file is the only place the seed is used: it generates the inputs,
// and the model receives only what is generated here.

// perturbAtmosphere applies a relative 1e-6 perturbation to the
// atmosphere's ρθ and rebuilds the diagnostics from it: every seed is a
// distinct trajectory of the same problem at the same cost.
func perturbAtmosphere(es *coupler.EarthSystem, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := es.Atm.State
	for i := range s.RhoTheta {
		s.RhoTheta[i] *= 1 + 1e-6*(2*rng.Float64()-1)
	}
	s.UpdateDiagnostics()
	es.ResyncBoundary()
}

// smoothRHS builds the right-hand side of dist_cg: four low-wavenumber
// harmonics over the wet cells with seeded phases and amplitudes.
func smoothRHS(g *grid.Grid, s *ocean.State, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	type mode struct{ amp, m, n, phLon, phLat float64 }
	modes := make([]mode, 4)
	for k := range modes {
		modes[k] = mode{
			amp:   0.5 + rng.Float64(),
			m:     float64(1 + k),
			n:     float64(1 + (k+1)%3),
			phLon: 2 * math.Pi * rng.Float64(),
			phLat: 2 * math.Pi * rng.Float64(),
		}
	}
	rhs := make([]float64, s.NOcean())
	for i, c := range s.Cells {
		lat, lon := g.CellCenter[c].LatLon()
		for _, md := range modes {
			rhs[i] += md.amp * math.Sin(md.m*lon+md.phLon) * math.Cos(md.n*lat+md.phLat)
		}
	}
	return rhs
}
