package bgc

import (
	"math"

	"icoearth/internal/sched"
)

// Carbonate chemistry: solve the CO₂ system (DIC, alkalinity) for the
// hydrogen-ion concentration and hence the partial pressure of CO₂ at the
// sea surface. Constants use simplified temperature fits adequate for the
// 0–30 °C range (the full HAMOCC uses Mehrbach constants; the iteration
// structure is identical).

// k0CO2 returns the CO₂ solubility (mol/(m³·µatm-ish); we work in
// consistent internal units where pCO2 comes out in µatm when DIC is in
// mol/m³).
func k0CO2(tC float64) float64 {
	// Weiss (1974)-like: solubility decreases with temperature.
	return 0.06 * math.Exp(-0.031*tC) // mol/m³ per µatm·1e-3 scale
}

// k1k2 returns the first and second dissociation constants of carbonic
// acid (mol/m³ units, temperature-dependent fits).
func k1k2(tC float64) (k1, k2 float64) {
	k1 = 1.2e-3 * math.Exp(0.012*tC)
	k2 = 8.0e-7 * math.Exp(0.015*tC)
	return k1, k2
}

// lanes is how many surface cells the carbonate solve advances in lockstep.
// Four is a measurement, not a setting (DESIGN.md §19.3): the bisection is
// a 60-step dependent chain of Sqrt, three multiplies and two divides per
// cell, so one cell alone leaves the divider and the multiplier idle most
// of every step; four independent chains fill them, and eight bracket ends
// plus the lanes' constants are about what the registers hold.
const lanes = 4

// Bracket of the bisection: mol/m³ H⁺, pH ~ 5..15 in these units.
const hLo, hHi = 1e-12, 1e-2

// carbLane holds one cell's loop-invariant products of the alkalinity
// balance, in the association the balance is written in.
type carbLane struct {
	k1, k12, dk1, dk12 float64 // k1, k1·k2, dic·k1, dic·k1·k2
}

func newCarbLane(dic, tC float64) carbLane {
	k1, k2 := k1k2(tC)
	return carbLane{k1: k1, k12: k1 * k2, dk1: dic * k1, dk12: dic * k1 * k2}
}

// denom returns [H⁺]² + K1·[H⁺] + K1·K2.
func (c carbLane) denom(h float64) float64 { return h*h + c.k1*h + c.k12 }

// alkAt returns the carbonate alkalinity [HCO₃⁻] + 2[CO₃²⁻] at [H⁺] = h.
func (c carbLane) alkAt(h float64) float64 {
	d := c.denom(h)
	return c.dk1*h/d + 2*(c.dk12/d)
}

// geoMean returns the geometric mean of a bracket held as bit patterns.
func geoMean(lo, hi uint64) float64 {
	return math.Sqrt(math.Float64frombits(lo) * math.Float64frombits(hi))
}

// narrow returns the bracket (lo, hi) with mid as its new lower end where
// mid is too acid (more acid → less alkalinity), as its new upper end
// otherwise. The ends are bit patterns picked by mask, because a branch
// here mispredicts every other step; the one if sets one integer, which
// the compiler turns into a conditional move.
func narrow(lo, hi uint64, mid float64, acid bool) (uint64, uint64) {
	m := math.Float64bits(mid)
	var keepHi uint64
	if acid {
		keepHi = ^uint64(0)
	}
	return m ^ (lo^m)&^keepHi, m ^ (hi^m)&keepHi
}

// solveCarbonateLanes returns the H⁺ concentration and dissolved CO₂
// ([CO₂*], mol/m³) of four cells from their DIC and carbonate alkalinity
// (mol/m³) and temperature, by 60 bisections of the alkalinity balance —
// the iterative loop at the heart of HAMOCC's chemistry. Every cell takes
// exactly 60 steps, so the lanes never diverge, and a lane's operations
// are those of a solve of that cell alone: its result does not depend on
// what the other lanes hold.
func solveCarbonateLanes(dic, alk, tC *[lanes]float64) (h, co2 [lanes]float64) {
	a, b := newCarbLane(dic[0], tC[0]), newCarbLane(dic[1], tC[1])
	c, d := newCarbLane(dic[2], tC[2]), newCarbLane(dic[3], tC[3])
	alkA, alkB, alkC, alkD := alk[0], alk[1], alk[2], alk[3]
	loA, hiA := math.Float64bits(hLo), math.Float64bits(hHi)
	loB, hiB, loC, hiC, loD, hiD := loA, hiA, loA, hiA, loA, hiA
	for i := 0; i < 60; i++ {
		midA, midB, midC, midD := geoMean(loA, hiA), geoMean(loB, hiB), geoMean(loC, hiC), geoMean(loD, hiD)
		loA, hiA = narrow(loA, hiA, midA, a.alkAt(midA) > alkA)
		loB, hiB = narrow(loB, hiB, midB, b.alkAt(midB) > alkB)
		loC, hiC = narrow(loC, hiC, midC, c.alkAt(midC) > alkC)
		loD, hiD = narrow(loD, hiD, midD, d.alkAt(midD) > alkD)
	}
	h = [lanes]float64{geoMean(loA, hiA), geoMean(loB, hiB), geoMean(loC, hiC), geoMean(loD, hiD)}
	for l, ln := range [lanes]carbLane{a, b, c, d} {
		co2[l] = dic[l] * h[l] * h[l] / ln.denom(h[l])
		if dic[l] <= 0 || alk[l] <= 0 {
			h[l], co2[l] = 1e-8, 0
		}
	}
	return h, co2
}

// SolveCarbonate returns the H⁺ concentration and dissolved CO₂ of one
// water parcel: lane 0 of the lockstep solve.
func SolveCarbonate(dic, alk, tC float64) (h, co2 float64) {
	hs, cs := solveCarbonateLanes(&[lanes]float64{dic, dic, dic, dic},
		&[lanes]float64{alk, alk, alk, alk}, &[lanes]float64{tC, tC, tC, tC})
	return hs[0], cs[0]
}

// PCO2 returns the seawater pCO₂ (µatm) at surface conditions.
func PCO2(dic, alk, tC float64) float64 {
	_, co2 := SolveCarbonate(dic, alk, tC)
	return co2 / k0CO2(tC) * 1e3
}

// GasTransferVelocity returns the CO₂ piston velocity (m/s) for 10-m wind
// speed u (Wanninkhof 1992: k ∝ u², Schmidt-number correction folded into
// the coefficient).
func GasTransferVelocity(u float64) float64 {
	return 0.31 * u * u / 3.6e5 // cm/h → m/s
}

// AirSeaFluxKernel computes and applies the air–sea CO₂ exchange over dt:
// flux = k·K0·(pCO2_atm − pCO2_oc), positive into the ocean. pco2Atm is
// the atmospheric partial pressure per ocean cell (µatm), wind the 10-m
// wind speed, iceFrac suppresses exchange under sea ice. The DIC of the
// surface layer is updated and the cumulative exchange recorded; the
// resulting flux in kg CO₂/m²/s is stored in LastCO2Flux. Surface cells
// are independent and run cell-parallel on the worker pool.
func (s *State) AirSeaFluxKernel(dt float64, pco2Atm, wind, iceFrac []float64) {
	if s.parAirSea == nil {
		s.bind()
	}
	s.args = kernelArgs{dt: dt, pco2Atm: pco2Atm, wind: wind, iceFrac: iceFrac}
	sched.Run(len(s.Oc.Cells), s.parAirSea)
	s.args = kernelArgs{}
}

// airSeaCells exchanges CO₂ over surface cells [lo,hi), four at a time; a
// last group short of four repeats its last cell in the idle lanes.
func (s *State) airSeaCells(lo, hi int) {
	oc := s.Oc
	nlev := oc.NLev
	dz0 := oc.Vert.Thickness(0)
	dt, pco2Atm, wind, iceFrac := s.args.dt, s.args.pco2Atm, s.args.wind, s.args.iceFrac
	sDIC, sAlk := s.Tracers[TrDIC], s.Tracers[TrAlk]
	for i0 := lo; i0 < hi; i0 += lanes {
		n := min(lanes, hi-i0)
		var dic, alk, tC [lanes]float64
		for l := range dic {
			idx := (i0 + min(l, n-1)) * nlev
			dic[l], alk[l], tC[l] = sDIC[idx], sAlk[idx], oc.Temp[idx]
		}
		_, co2 := solveCarbonateLanes(&dic, &alk, &tC)
		for l := 0; l < n; l++ {
			i := i0 + l
			k0 := k0CO2(tC[l])
			pOc := co2[l] / k0 * 1e3
			k := GasTransferVelocity(wind[i]) * (1 - iceFrac[i])
			// mol/m²/s, positive downward (into ocean).
			flux := k * k0 * (pco2Atm[i] - pOc) * 1e-3
			// Limit: cannot outgas more DIC than the surface layer holds.
			maxOut := dic[l] * dz0 / dt * 0.5
			if flux < -maxOut {
				flux = -maxOut
			}
			sDIC[i*nlev] = dic[l] + flux*dt/dz0
			s.CumAirSea[i] += flux * dt
			s.LastCO2Flux[i] = flux * MolMassCO2
		}
	}
}
