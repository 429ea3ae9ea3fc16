package land

import "math"

// Dynamic vegetation: the PFT cover fractions are themselves prognostic
// (the paper's configuration runs JSBach "with dynamic vegetation").
// Competition follows productivity: each PFT's smoothed NPP per unit area
// is its fitness, and cover fractions relax toward the fitness shares on
// a succession timescale, holding the cell's total vegetated fraction
// fixed (establishment on bare ground and disturbance are not modelled).
// Carbon pools are defined per unit cell area, so shifting cover moves no
// carbon — inventories remain exactly conserved while the landscape
// composition changes.

// SuccessionTime is the e-folding time of cover change (s). The real
// JSBach uses decades; examples and tests may shorten it.
const SuccessionTime = 50 * 365 * 86400.0

// nppSmoothing is the EMA timescale of the fitness measure (s).
const nppSmoothing = 30 * 86400.0

// dynamicVegetation advances the cover fractions of land cell i by
// competition, relaxing each toward its fitness share with weight w
// (min(1, dt/succession time)).
func (s *State) dynamicVegetation(i int, w float64) {
	cover := (*[NumPFT]float64)(s.Cover[i*NumPFT:])
	fitness := (*[NumPFT]float64)(s.NPPAvg[i*NumPFT:])
	// Total vegetated fraction stays fixed; fitness shares move within.
	var total, fitSum float64
	for p := range NumPFT {
		total += cover[p]
		if f := fitness[p]; f > 0 {
			fitSum += f
		}
	}
	if total <= 0 || fitSum <= 0 {
		return
	}
	for p := range NumPFT {
		fit := math.Max(0, fitness[p])
		target := total * fit / fitSum
		cover[p] += w * (target - cover[p])
		if cover[p] < 0 {
			cover[p] = 0
		}
	}
	// Renormalise round-off so the vegetated fraction is exactly
	// preserved.
	var newTotal float64
	for p := range NumPFT {
		newTotal += cover[p]
	}
	if newTotal > 0 {
		f := total / newTotal
		for p := range NumPFT {
			cover[p] *= f
		}
	}
}

// CoverFraction returns the total vegetated fraction of compact cell i.
func (s *State) CoverFraction(i int) float64 {
	var t float64
	for p := 0; p < NumPFT; p++ {
		t += s.Cover[i*NumPFT+p]
	}
	return t
}

// DominantPFT returns the index of the PFT with the largest cover in cell
// i (-1 if unvegetated).
func (s *State) DominantPFT(i int) int {
	best, bestCov := -1, 0.0
	for p := 0; p < NumPFT; p++ {
		if cv := s.Cover[i*NumPFT+p]; cv > bestCov {
			best, bestCov = p, cv
		}
	}
	return best
}
