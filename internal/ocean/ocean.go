// Package ocean implements the ocean and sea-ice component: a free-surface
// primitive-equation-style ocean on the ocean-masked cells of the
// icosahedral grid with 72 stretched depth levels, split into a
// semi-implicit barotropic mode — a global 2-D elliptic system solved by
// conjugate gradients with global reductions, the communication pattern the
// paper identifies as the scaling bottleneck — and an explicit baroclinic
// mode with flux-form tracer advection, implicit vertical mixing,
// convective adjustment, and a thermodynamic sea-ice layer.
//
// The component is designed to run on CPU devices concurrently with the
// GPU-resident atmosphere (§5.1 of the paper: the ocean comes "for free" on
// the Grace CPUs).
package ocean

import (
	"fmt"
	"math"
	"sort"

	"icoearth/internal/grid"
	"icoearth/internal/vertical"
)

// Physical constants.
const (
	RhoWater   = 1025.0  // reference sea water density, kg/m³
	CpWater    = 3994.0  // specific heat, J/(kg K)
	GravO      = 9.80665 // gravity
	TFreeze    = -1.8    // freezing point of sea water, °C
	RhoIce     = 917.0
	LFusion    = 3.34e5 // latent heat of fusion, J/kg
	AlphaT     = 2.0e-4 // thermal expansion coefficient, 1/K
	BetaS      = 7.6e-4 // haline contraction coefficient, 1/psu
	OmegaEarth = 7.29212e-5
)

// State holds the ocean prognostics on the compact ocean-cell index space.
type State struct {
	G    *grid.Grid
	Mask *grid.Mask
	Vert *vertical.Ocean
	NLev int

	// Compact indexing. Cells[i] is the global cell of ocean cell i;
	// CellIndex maps global → compact (-1 for land). Edges likewise for
	// ocean-only edges (both adjacent cells wet).
	Cells     []int
	CellIndex []int
	Edges     []int
	EdgeIndex []int

	// Per-edge compact adjacency: the two compact ocean cells of each
	// ocean edge.
	EdgeCells [][2]int

	// Prognostics.
	Eta  []float64 // sea surface height, per ocean cell
	Ub   []float64 // barotropic (depth-mean) normal velocity per ocean edge
	Temp []float64 // potential temperature °C, [i*nlev+k]
	Salt []float64 // salinity psu
	U    []float64 // baroclinic normal velocity per ocean edge × level

	// Sea ice (thermodynamic slab).
	IceThick []float64 // mean ice thickness, m
	IceFrac  []float64 // ice concentration 0..1

	// Depth of each column (m); flat-bottom default with coastal shoaling.
	// Fixed after NewState; wet tabulates the active level count it implies.
	Depth []float64
	wet   []int32

	// Mass fluxes from the last step for tracer (BGC) advection:
	// per ocean edge × level, and vertical per cell × (nlev+1).
	MassFluxEdge []float64
	MassFluxVert []float64
}

// NewState builds the compact ocean state for the wet cells of mask.
func NewState(g *grid.Grid, mask *grid.Mask, vert *vertical.Ocean) *State {
	s := &State{G: g, Mask: mask, Vert: vert, NLev: vert.NLev}
	s.CellIndex = make([]int, g.NCells)
	for i := range s.CellIndex {
		s.CellIndex[i] = -1
	}
	for _, c := range mask.OceanCells {
		s.CellIndex[c] = len(s.Cells)
		s.Cells = append(s.Cells, c)
	}
	s.EdgeIndex = make([]int, g.NEdges)
	for i := range s.EdgeIndex {
		s.EdgeIndex[i] = -1
	}
	for e := 0; e < g.NEdges; e++ {
		if mask.OceanOnly(g, e) {
			s.EdgeIndex[e] = len(s.Edges)
			s.Edges = append(s.Edges, e)
			c0 := s.CellIndex[g.EdgeCells[e][0]]
			c1 := s.CellIndex[g.EdgeCells[e][1]]
			s.EdgeCells = append(s.EdgeCells, [2]int{c0, c1})
		}
	}
	n, ne, nlev := len(s.Cells), len(s.Edges), s.NLev
	s.Eta = make([]float64, n)
	s.Ub = make([]float64, ne)
	s.Temp = make([]float64, n*nlev)
	s.Salt = make([]float64, n*nlev)
	s.U = make([]float64, ne*nlev)
	s.IceThick = make([]float64, n)
	s.IceFrac = make([]float64, n)
	s.Depth = make([]float64, n)
	s.MassFluxEdge = make([]float64, ne*nlev)
	s.MassFluxVert = make([]float64, n*(nlev+1))
	// Depth: full depth away from coasts, shoaling where any neighbour is
	// land (a crude shelf).
	for i, c := range s.Cells {
		s.Depth[i] = vert.Bottom
		for _, nb := range g.CellNeighbors[c] {
			if mask.IsLand[nb] {
				s.Depth[i] = vert.Bottom * 0.2
			}
		}
	}
	s.tabulateWet()
	return s
}

// NOcean returns the number of wet cells.
func (s *State) NOcean() int { return len(s.Cells) }

// NEdgesOcean returns the number of wet edges.
func (s *State) NEdgesOcean() int { return len(s.Edges) }

// InitAnalytic sets a zonally symmetric temperature/salinity climatology:
// warm tropical surface waters cooling poleward and with depth, uniform
// abyss, slightly fresher high latitudes.
func (s *State) InitAnalytic() {
	nlev := s.NLev
	for i, c := range s.Cells {
		lat, _ := s.G.CellCenter[c].LatLon()
		sst := 28*math.Cos(lat)*math.Cos(lat) - 1
		for k := 0; k < nlev; k++ {
			z := s.Vert.ZFull[k]
			// Exponential thermocline toward 2 °C abyssal water.
			s.Temp[i*nlev+k] = 2 + (sst-2)*math.Exp(-z/800)
			// Surface-trapped salinity anomalies: salty subtropics, strong
			// polar freshening (halocline). The freshening decays more
			// slowly than the temperature so the polar columns — whose
			// surface is colder than the abyss — stay statically stable.
			s.Salt[i*nlev+k] = 34.7 + (0.5*math.Cos(lat)-1.6*math.Sin(lat)*math.Sin(lat))*math.Exp(-z/1500)
		}
		if sst < TFreeze+0.3 {
			s.IceFrac[i] = 0.8
			s.IceThick[i] = 1.5
		}
	}
}

// Density returns the linearised equation of state at compact cell i,
// level k: ρ = ρ0·(1 − α(T−T0) + β(S−S0)).
func (s *State) Density(i, k int) float64 {
	t := s.Temp[i*s.NLev+k]
	sa := s.Salt[i*s.NLev+k]
	return RhoWater * (1 - AlphaT*(t-10) + BetaS*(sa-34.7))
}

// SST returns the sea surface temperature of compact cell i (°C).
func (s *State) SST(i int) float64 { return s.Temp[i*s.NLev] }

// TotalHeat returns ∫ρ0·cp·T dV over the ocean (J, relative to 0 °C),
// using the same wet-level discretisation as the dynamics (full layer
// thickness for every wet level) so that conservation holds exactly.
func (s *State) TotalHeat() float64 {
	var h float64
	nlev := s.NLev
	for i, c := range s.Cells {
		a := s.G.CellArea[c]
		wet := s.WetLevels(i)
		for k := 0; k < wet; k++ {
			h += RhoWater * CpWater * s.Temp[i*nlev+k] * a * s.Vert.Thickness(k)
		}
	}
	return h
}

// TotalSalt returns ∫ρ0·S dV (kg of salt), on the dynamics' wet-level
// discretisation.
func (s *State) TotalSalt() float64 {
	var m float64
	nlev := s.NLev
	for i, c := range s.Cells {
		a := s.G.CellArea[c]
		wet := s.WetLevels(i)
		for k := 0; k < wet; k++ {
			m += RhoWater * s.Salt[i*nlev+k] * a * s.Vert.Thickness(k) * 1e-3
		}
	}
	return m
}

// TotalVolume returns the ocean volume implied by Eta (m³) relative to the
// resting volume: ∫η dA. Volume conservation of the free-surface solver
// means this stays at its initial value absent freshwater fluxes.
func (s *State) EtaVolume() float64 {
	var v float64
	for i, c := range s.Cells {
		v += s.Eta[i] * s.G.CellArea[c]
	}
	return v
}

// WetLevels returns the number of active levels of column i (at least 1).
func (s *State) WetLevels(i int) int { return int(s.wet[i]) }

// tabulateWet fills the wet-level table from Depth.
func (s *State) tabulateWet() {
	s.wet = make([]int32, len(s.Cells))
	for i := range s.wet {
		n := sort.SearchFloat64s(s.Vert.ZIface[:s.NLev], s.Depth[i])
		s.wet[i] = int32(max(n, 1))
	}
}

// CheckFinite returns an error if any prognostic is NaN/Inf. The fields
// are scanned in a fixed order so the reported field is deterministic
// when several blow up in the same step (a map here would make the
// error message depend on iteration order).
func (s *State) CheckFinite() error {
	fields := []struct {
		name string
		data []float64
	}{
		{"eta", s.Eta}, {"ub", s.Ub}, {"temp", s.Temp},
		{"salt", s.Salt}, {"u", s.U}, {"iceThick", s.IceThick},
	}
	for _, f := range fields {
		for i, v := range f.data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ocean: %s[%d] = %v", f.name, i, v)
			}
		}
	}
	return nil
}
