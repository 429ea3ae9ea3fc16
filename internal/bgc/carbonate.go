package bgc

import (
	"math"

	"icoearth/internal/sched"
)

// Carbonate chemistry: solve the CO₂ system (DIC, alkalinity) for the
// hydrogen-ion concentration and hence the partial pressure of CO₂ at the
// sea surface. Constants use simplified temperature fits adequate for the
// 0–30 °C range (the full HAMOCC uses Mehrbach constants, and iterates
// because borate and water enter its alkalinity; on carbonate alkalinity
// alone the balance has a closed form).

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

// Bounds of the solve: mol/m³ H⁺, pH ~ 5..15 in these units.
const hLo, hHi = 1e-12, 1e-2

// SolveCarbonate returns the H⁺ concentration and dissolved CO₂ ([CO₂*],
// mol/m³) of one water parcel from its DIC and carbonate alkalinity
// (mol/m³) and temperature. The alkalinity balance
//
//	alk = dic·K1·(h + 2·K2) / (h² + K1·h + K1·K2)
//
// is a quadratic in h = [H⁺],
//
//	alk·h² + K1·(alk−dic)·h + K1·K2·(alk−2·dic) = 0,
//
// whose constant term is negative for sea water (alk < 2·dic), so it has
// one positive root. That root is taken in the form that adds magnitudes
// of one sign — c/q where the linear coefficient is positive, q/a where it
// is not — and clamped to [hLo, hHi]; water with alk ≥ 2·dic has no
// positive root and gets hLo.
func SolveCarbonate(dic, alk, tC float64) (h, co2 float64) {
	if dic <= 0 || alk <= 0 {
		return 1e-8, 0
	}
	k1, k2 := k1k2(tC)
	k12 := k1 * k2
	b, c := k1*(alk-dic), k12*(alk-2*dic)
	root := math.Sqrt(b*b - 4*alk*c)
	if b >= 0 {
		h = -2 * c / (b + root)
	} else {
		h = (root - b) / (2 * alk)
	}
	if !(h > hLo) {
		h = hLo
	}
	if h > hHi {
		h = hHi
	}
	return h, dic * h * h / (h*h + k1*h + k12)
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

// airSeaCells exchanges CO₂ over surface cells [lo,hi).
func (s *State) airSeaCells(lo, hi int) {
	oc := s.Oc
	nlev := oc.NLev
	dz0 := oc.Vert.Thickness(0)
	dt, pco2Atm, wind, iceFrac := s.args.dt, s.args.pco2Atm, s.args.wind, s.args.iceFrac
	sDIC, sAlk := s.Tracers[TrDIC], s.Tracers[TrAlk]
	for i := lo; i < hi; i++ {
		idx := i * nlev
		dic, tC := sDIC[idx], oc.Temp[idx]
		_, co2 := SolveCarbonate(dic, sAlk[idx], tC)
		k0 := k0CO2(tC)
		pOc := co2 / k0 * 1e3
		k := GasTransferVelocity(wind[i]) * (1 - iceFrac[i])
		// mol/m²/s, positive downward (into ocean).
		flux := k * k0 * (pco2Atm[i] - pOc) * 1e-3
		// Limit: cannot outgas more DIC than the surface layer holds.
		maxOut := dic * dz0 / dt * 0.5
		if flux < -maxOut {
			flux = -maxOut
		}
		sDIC[idx] = dic + flux*dt/dz0
		s.CumAirSea[i] += flux * dt
		s.LastCO2Flux[i] = flux * MolMassCO2
	}
}
