// Package bgc implements the ocean biogeochemistry component (the analogue
// of HAMOCC): 19 prognostic tracers (Table 2) covering an NPZD-type
// ecosystem, the inorganic carbon system with iterative carbonate
// chemistry, air–sea CO₂ exchange with a wind-speed-dependent gas transfer
// velocity (Wanninkhof), particle export with sinking and
// remineralisation, and trace gases.
//
// Like HAMOCC in ICON (Linardakis et al. 2022), the component has no global
// solver: it rides on the ocean's transport (one Dynamics.AdvectTracers
// sweep carries all 19 fields) and is loosely coupled to the atmosphere,
// which is why the paper can place it either on the GPU (concurrent) or
// with the ocean on the CPU "for free".
package bgc

import (
	"math"

	"icoearth/internal/ocean"
)

// Tracer indices: the 19 biogeochemical quantities of Table 2.
const (
	TrPO4 = iota // phosphate, mol P/m³
	TrNO3        // nitrate, mol N/m³
	TrSiO4
	TrFe
	TrO2
	TrDIC // dissolved inorganic carbon, mol C/m³
	TrAlk // total alkalinity, mol/m³
	TrPhy // phytoplankton, mol C/m³
	TrZoo
	TrDOC
	TrDet // detritus (POC), mol C/m³
	TrCaCO3
	TrOpal
	TrN2
	TrN2O
	TrDMS
	TrDust
	TrCDOM
	TrH2S
	NumTracers // == 19
)

// Redfield ratios and stoichiometry.
const (
	RedfieldCP = 106.0 // C:P
	RedfieldNP = 16.0
	RedfieldOP = 172.0 // O2:P on remineralisation
	MolMassCO2 = 0.044 // kg/mol
	MolMassC   = 0.012
)

// State holds the 19 tracer fields on the ocean's compact indexing
// ([i*nlev+k], concentrations in mol/m³).
type State struct {
	Oc      *ocean.State
	Tracers [NumTracers][]float64

	// CumAirSea accumulates the air–sea carbon exchange per ocean cell
	// (mol C/m², positive = ocean has taken carbon up); the conservation
	// invariant is CarbonInventory() − Σ CumAirSea·area = const.
	CumAirSea []float64

	// LastCO2Flux is the most recent air–sea CO₂ flux (kg CO₂/m²/s,
	// positive = into the ocean), kept for coupling and diagnostics.
	LastCO2Flux []float64

	// Pre-bound worker-pool bodies (see bind), the arguments of the kernel
	// call in flight, and the per-level tables (see levelTables).
	parEco, parSink, parAirSea func(lo, hi int)
	args                       kernelArgs
	tab                        levelTables
}

// NewState allocates and initialises the biogeochemical tracers with
// climatological profiles: nutrient-rich deep water, depleted surface,
// oxygen saturated at the surface with a mid-depth minimum.
func NewState(oc *ocean.State) *State {
	s := &State{Oc: oc}
	n := oc.NOcean() * oc.NLev
	for t := range s.Tracers {
		s.Tracers[t] = make([]float64, n)
	}
	s.CumAirSea = make([]float64, oc.NOcean())
	s.LastCO2Flux = make([]float64, oc.NOcean())
	nlev := oc.NLev
	for i := range oc.Cells {
		lat, _ := oc.G.CellCenter[oc.Cells[i]].LatLon()
		upw := math.Sin(lat) * math.Sin(lat) // poleward nutrient enrichment proxy
		for k := 0; k < nlev; k++ {
			z := oc.Vert.ZFull[k]
			depth := 1 - math.Exp(-z/1000)
			idx := i*nlev + k
			s.Tracers[TrPO4][idx] = 0.2e-3 + (2.2e-3-0.2e-3)*depth + 0.4e-3*upw
			s.Tracers[TrNO3][idx] = s.Tracers[TrPO4][idx] * RedfieldNP
			s.Tracers[TrSiO4][idx] = 5e-3 + 80e-3*depth
			s.Tracers[TrFe][idx] = 0.1e-6 + 0.5e-6*depth
			s.Tracers[TrO2][idx] = 0.30 - 0.12*math.Exp(-(z-800)*(z-800)/(2*500*500))
			s.Tracers[TrDIC][idx] = 2.0 + 0.25*depth
			s.Tracers[TrAlk][idx] = 2.3 + 0.12*depth
			s.Tracers[TrPhy][idx] = 1e-3 * math.Exp(-z/80) * (0.5 + math.Cos(lat)*math.Cos(lat))
			s.Tracers[TrZoo][idx] = 0.3e-3 * math.Exp(-z/120)
			s.Tracers[TrDOC][idx] = 40e-3 * math.Exp(-z/400)
			s.Tracers[TrDet][idx] = 1e-3 * math.Exp(-z/200)
			s.Tracers[TrCaCO3][idx] = 0.1e-3 * math.Exp(-z/500)
			s.Tracers[TrOpal][idx] = 0.2e-3 * math.Exp(-z/500)
			s.Tracers[TrN2][idx] = 0.45
			s.Tracers[TrN2O][idx] = 0.02e-3
			s.Tracers[TrDMS][idx] = 1e-6 * math.Exp(-z/50)
			s.Tracers[TrDust][idx] = 0.5e-6
			s.Tracers[TrCDOM][idx] = 1e-3 * math.Exp(-z/300)
			s.Tracers[TrH2S][idx] = 0
		}
	}
	return s
}

// carbonTracers lists the pools that carry carbon (all in mol C/m³).
var carbonTracers = []int{TrDIC, TrPhy, TrZoo, TrDOC, TrDet, TrCaCO3}

// CarbonInventory returns the total ocean carbon in mol C: DIC plus all
// organic and particulate carbon pools.
func (s *State) CarbonInventory() float64 {
	var sum float64
	for _, t := range carbonTracers {
		sum += s.Oc.TracerInventory(s.Tracers[t])
	}
	return sum
}

// ConservedCarbon returns the conservation invariant: ocean carbon minus
// what has been absorbed from the atmosphere.
func (s *State) ConservedCarbon() float64 {
	inv := s.CarbonInventory()
	for i, c := range s.Oc.Cells {
		inv -= s.CumAirSea[i] * s.Oc.G.CellArea[c]
	}
	return inv
}

// SurfacePhytoplankton returns the surface phytoplankton concentration of
// compact cell i (mol C/m³) — the quantity visualised in the paper's
// Figure 5.
func (s *State) SurfacePhytoplankton(i int) float64 {
	return s.Tracers[TrPhy][i*s.Oc.NLev]
}
