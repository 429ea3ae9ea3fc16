// Package land implements the land-surface and terrestrial-biosphere
// component (the analogue of ICON's JSBach with dynamic vegetation): a
// 5-level soil column (temperature and moisture), snow, a bucket hydrology
// with river discharge to the ocean, and a vegetation carbon cycle with up
// to 11 plant functional types, each carrying 21 carbon pools plus a
// prognostic leaf area index (Table 2 of the paper).
//
// The computational signature matters as much as the physics: JSBach is
// many small per-PFT kernels with little work each — the structure that
// makes launch latency dominate on GPUs and that the paper attacks with
// CUDA Graphs (§5.1, 8–10× speedup). The Model launches one record per
// process and per (vegetation process, PFT), so the simulated device and
// graph capture see that stream, while the host runs the whole step as
// one pass over the land cells on the worker pool: every process touches
// only its own cell, so the pass is bit-identical to the per-process
// sequence at any worker count (DESIGN.md §20).
package land

import (
	"math"

	"icoearth/internal/grid"
	"icoearth/internal/vertical"
)

// NumPFT is the maximum number of plant functional types (paper: ≤11).
const NumPFT = 11

// Carbon pool indices: 5 live pools, then a YASSO-like litter/soil cascade,
// 21 pools per PFT in total (Table 2: "21 additional carbon pools").
const (
	PoolLeaf = iota
	PoolWood
	PoolRoot
	PoolFruit
	PoolReserve
	// Above-ground litter (acid/water/ethanol-soluble, non-soluble).
	PoolLitAbA
	PoolLitAbW
	PoolLitAbE
	PoolLitAbN
	// Below-ground litter.
	PoolLitBeA
	PoolLitBeW
	PoolLitBeE
	PoolLitBeN
	// Woody debris.
	PoolDebris
	// Soil organic matter cascade.
	PoolSoilFast
	PoolSoilSlow
	PoolHumus1
	PoolHumus2
	PoolCharcoal
	// Product-like slow pools.
	PoolSeedBank
	PoolExudates
	NumPools // == 21
)

// PFT holds the (idealised) parameters of one plant functional type.
type PFT struct {
	Name        string
	LUE         float64 // light-use efficiency, kg C per MJ APAR
	SLA         float64 // specific leaf area, m² LAI per kg C leaf
	LAIMax      float64
	TOpt        float64 // photosynthesis temperature optimum, °C
	TRange      float64 // tolerance width, K
	LeafTurn    float64 // leaf turnover rate, 1/s
	WoodTurn    float64
	RootTurn    float64
	AllocLeaf   float64 // NPP allocation fractions (sum ≤ 1; rest → reserve)
	AllocWood   float64
	AllocRoot   float64
	AllocFruit  float64
	RespFactor  float64 // maintenance respiration coefficient at 25 °C, 1/s
	MoistThresh float64 // soil moisture fraction below which stress sets in
}

// DefaultPFTs returns the 11 plant functional types.
func DefaultPFTs() [NumPFT]PFT {
	day := 86400.0
	year := 365 * day
	return [NumPFT]PFT{
		{"tropical-broadleaf-evergreen", 2.4e-3, 12, 7, 28, 10, 1 / (1.5 * year), 1 / (30 * year), 1 / (2 * year), 0.35, 0.25, 0.25, 0.05, 1.8e-9, 0.35},
		{"tropical-broadleaf-deciduous", 2.2e-3, 13, 6, 27, 10, 1 / (0.8 * year), 1 / (25 * year), 1 / (1.5 * year), 0.4, 0.2, 0.25, 0.05, 1.8e-9, 0.4},
		{"extratropical-evergreen", 1.6e-3, 9, 5, 15, 12, 1 / (3 * year), 1 / (40 * year), 1 / (2.5 * year), 0.3, 0.3, 0.25, 0.03, 1.4e-9, 0.3},
		{"extratropical-deciduous", 1.8e-3, 14, 5, 16, 11, 1 / (0.5 * year), 1 / (35 * year), 1 / (2 * year), 0.4, 0.22, 0.25, 0.04, 1.5e-9, 0.35},
		{"raingreen-shrub", 1.2e-3, 10, 3, 24, 12, 1 / (0.7 * year), 1 / (15 * year), 1 / (1.5 * year), 0.38, 0.15, 0.3, 0.04, 1.3e-9, 0.45},
		{"deciduous-shrub", 1.1e-3, 11, 2.5, 14, 13, 1 / (0.6 * year), 1 / (12 * year), 1 / (1.5 * year), 0.38, 0.15, 0.3, 0.04, 1.3e-9, 0.35},
		{"c3-grass", 1.5e-3, 18, 3.5, 15, 14, 1 / (0.4 * year), 0, 1 / (1 * year), 0.5, 0, 0.4, 0.05, 1.6e-9, 0.3},
		{"c4-grass", 1.9e-3, 16, 3.5, 26, 12, 1 / (0.4 * year), 0, 1 / (1 * year), 0.5, 0, 0.4, 0.05, 1.6e-9, 0.45},
		{"tundra", 0.8e-3, 12, 1.5, 8, 10, 1 / (0.7 * year), 0, 1 / (2 * year), 0.45, 0, 0.4, 0.03, 1.0e-9, 0.25},
		{"wetland", 1.3e-3, 13, 4, 18, 12, 1 / (0.9 * year), 1 / (20 * year), 1 / (2 * year), 0.4, 0.1, 0.35, 0.04, 1.4e-9, 0.15},
		{"crop", 2.0e-3, 17, 4.5, 20, 12, 1 / (0.45 * year), 0, 1 / (1 * year), 0.5, 0, 0.35, 0.1, 1.7e-9, 0.35},
	}
}

// State holds the land prognostics on compact land-cell indexing.
type State struct {
	G    *grid.Grid
	Mask *grid.Mask
	Soil *vertical.Soil

	Cells     []int // global cell ids of land cells
	CellIndex []int // global -> compact (-1 for ocean)

	// Soil physics, [i*NSoil+k].
	SoilTemp  []float64 // K
	SoilMoist []float64 // fraction of saturation, 0..1
	Snow      []float64 // snow water equivalent, kg/m²
	Skin      []float64 // skin reservoir, kg/m²

	// Vegetation: cover fractions per PFT [i*NumPFT+p] (sum ≤ 1, rest is
	// bare ground), carbon pools [ (i*NumPFT+p)*NumPools+q ] in kg C/m²
	// (per unit cell area, already scaled by cover), and LAI per PFT.
	Cover []float64
	Pools []float64
	LAI   []float64

	// NPPAvg is the smoothed productivity per (cell, PFT) driving the
	// dynamic-vegetation competition (kg C/m²/s).
	NPPAvg []float64

	PFTs [NumPFT]PFT

	// Runoff reservoir per cell (kg/m²) awaiting river routing.
	Runoff []float64

	// CumNEE accumulates net carbon exchanged with the atmosphere
	// (kg C/m², positive = carbon left the land); the conservation
	// invariant is TotalCarbon() + CumNEE·area = const.
	CumNEE []float64
}

// NSoil is the number of soil levels.
const NSoil = 5

// NewState builds the land state on the land cells of mask.
func NewState(g *grid.Grid, mask *grid.Mask) *State {
	s := &State{G: g, Mask: mask, Soil: vertical.NewSoil(), PFTs: DefaultPFTs()}
	s.CellIndex = make([]int, g.NCells)
	for i := range s.CellIndex {
		s.CellIndex[i] = -1
	}
	for _, c := range mask.LandCells {
		s.CellIndex[c] = len(s.Cells)
		s.Cells = append(s.Cells, c)
	}
	n := len(s.Cells)
	s.SoilTemp = make([]float64, n*NSoil)
	s.SoilMoist = make([]float64, n*NSoil)
	s.Snow = make([]float64, n)
	s.Skin = make([]float64, n)
	s.Cover = make([]float64, n*NumPFT)
	s.Pools = make([]float64, n*NumPFT*NumPools)
	s.LAI = make([]float64, n*NumPFT)
	s.NPPAvg = make([]float64, n*NumPFT)
	s.Runoff = make([]float64, n)
	s.CumNEE = make([]float64, n)
	s.initClimatology()
	return s
}

// NLand returns the number of land cells.
func (s *State) NLand() int { return len(s.Cells) }

// initClimatology assigns PFT cover by latitude band and spins soil
// temperature/moisture to plausible values.
func (s *State) initClimatology() {
	for i, c := range s.Cells {
		lat, lon := s.G.CellCenter[c].LatLon()
		absLat := math.Abs(lat)
		cv := s.Cover[i*NumPFT : (i+1)*NumPFT]
		switch {
		case absLat < 0.30: // tropics
			cv[0], cv[1], cv[7], cv[9] = 0.45, 0.2, 0.2, 0.05
		case absLat < 0.60: // subtropics
			cv[1], cv[4], cv[7], cv[10] = 0.15, 0.25, 0.3, 0.2
		case absLat < 0.90: // temperate
			cv[2], cv[3], cv[6], cv[10] = 0.25, 0.3, 0.25, 0.1
		case absLat < 1.15: // boreal
			cv[2], cv[5], cv[6] = 0.45, 0.2, 0.2
		default: // polar
			cv[8] = 0.5
		}
		// Longitudinal variety so per-PFT kernels have uneven work.
		if math.Sin(3*lon) > 0.5 {
			cv[6] += 0.05
		}
		// Soil initial conditions: annual-mean-ish temperature, moist soil.
		t0 := 288 - 35*math.Pow(math.Sin(lat), 2)
		for k := 0; k < NSoil; k++ {
			s.SoilTemp[i*NSoil+k] = t0
			s.SoilMoist[i*NSoil+k] = 0.6 - 0.2*math.Abs(math.Sin(2*lat))
		}
		if t0 < 268 {
			s.Snow[i] = 50
		}
		// Seed carbon pools proportional to cover.
		for p := 0; p < NumPFT; p++ {
			if cv[p] == 0 {
				continue
			}
			pool := s.poolSlice(i, p)
			pool[PoolLeaf] = 0.05 * cv[p]
			pool[PoolWood] = 3.0 * cv[p]
			pool[PoolRoot] = 0.4 * cv[p]
			pool[PoolReserve] = 0.2 * cv[p]
			pool[PoolSoilFast] = 1.0 * cv[p]
			pool[PoolSoilSlow] = 4.0 * cv[p]
			pool[PoolHumus1] = 6.0 * cv[p]
			s.LAI[i*NumPFT+p] = pool[PoolLeaf] * s.PFTs[p].SLA
		}
	}
}

// poolSlice returns the 21 pools of (cell i, pft p).
func (s *State) poolSlice(i, p int) []float64 {
	base := (i*NumPFT + p) * NumPools
	return s.Pools[base : base+NumPools]
}

// SurfaceTemp returns the land surface temperature of compact cell i (K),
// the quantity handed to the atmosphere as the lower boundary condition.
func (s *State) SurfaceTemp(i int) float64 { return s.SoilTemp[i*NSoil] }

// TotalCarbon returns the global land carbon inventory (kg C).
func (s *State) TotalCarbon() float64 {
	var m float64
	for i, c := range s.Cells {
		a := s.G.CellArea[c]
		var col float64
		for p := 0; p < NumPFT; p++ {
			pool := s.poolSlice(i, p)
			for _, v := range pool {
				col += v
			}
		}
		m += col * a
	}
	return m
}

// TotalWater returns soil water + snow + skin inventory (kg).
func (s *State) TotalWater() float64 {
	var m float64
	const satCapacity = 300.0 // kg/m² per fully saturated soil column unit depth factor
	for i, c := range s.Cells {
		a := s.G.CellArea[c]
		var col float64
		for k := 0; k < NSoil; k++ {
			col += s.SoilMoist[i*NSoil+k] * satCapacity * s.Soil.Thickness[k] / s.Soil.TotalDepth()
		}
		col += s.Snow[i] + s.Skin[i] + s.Runoff[i]
		m += col * a
	}
	return m
}
