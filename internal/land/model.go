package land

import (
	"fmt"
	"math"

	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/pow"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

// Model is the land component as the coupler sees it. A step is launched
// as 64 records, one per process and one per (vegetation process, PFT) —
// dozens of tiny kernels per step, the workload the paper accelerates
// 8–10× with CUDA Graphs — so the simulated device charges, and graph
// capture levels, the paper's kernel stream. The work itself is one pass
// over the land cells on the worker pool, carried by the first record;
// the other 63 are accounting-only (DESIGN.md §20). Set UseGraph to
// capture the records once and replay them on every step.
type Model struct {
	State  *State
	Rivers *Rivers
	Dev    *exec.Device

	// UseGraph enables CUDA-Graph-style capture/replay of the step.
	UseGraph bool

	graph   *exec.Graph
	steps   int
	kernels []exec.Kernel    // the step's launch records, bound once
	cols    func(lo, hi int) // columns, bound once so that a dispatch allocates nothing
	tab     tables

	// The step's arguments, and its results: owned by the Model, valid
	// until the next Step.
	dt        float64
	forcing   *Forcing
	fluxes    *Fluxes
	outflow   []float64 // per land cell, kg/s released to its river mouth
	discharge []float64 // per river mouth, kg/s
}

// tables holds what the step would otherwise evaluate per cell or per
// (cell, PFT), each entry the expression the per-cell code evaluated,
// once: what depends on the soil grid, the two Q10 bases, and — rebuilt
// when dt's bits change — the soil-temperature matrix and the weights
// min(1, dt/τ) with which leaves (τ 10 days), allocation (5 days), the
// NPP average (30 days) and the cover (SuccessionTime) relax.
type tables struct {
	capK         [NSoil]float64 // SatCapacity·Thickness[k]/TotalDepth(): level k's water at saturation, kg/m²
	heat0        float64        // SoilHeatCap·Thickness[0]: the top level's heat capacity, J/(m² K)
	q10Ra, q10Rh pow.Fixed      // autotrophic (base 2) and heterotrophic (base 2.2) respiration

	dt    uint64 // bits of the dt the entries below are for
	built bool
	// The implicit heat-diffusion matrix of dt, eliminated as the Thomas
	// algorithm eliminates it: the multipliers mul[k] = a[k]/piv[k−1] and
	// the pivots piv[k] = b[k] − mul[k]·c[k−1] depend on dt and the grid
	// only, so only the right-hand side is swept per cell.
	mul, piv, c                                     [NSoil]float64
	phenology, allocation, nppSmoothing, succession float64
}

func newTables(soil *vertical.Soil) tables {
	t := tables{q10Ra: pow.NewFixed(2), q10Rh: pow.NewFixed(2.2)}
	for k := range t.capK {
		t.capK[k] = SatCapacity * soil.Thickness[k] / soil.TotalDepth()
	}
	t.heat0 = SoilHeatCap * soil.Thickness[0]
	return t
}

// forDt brings the dt-dependent entries up to date for dt.
func (t *tables) forDt(soil *vertical.Soil, dt float64) {
	if t.built && math.Float64bits(dt) == t.dt {
		return
	}
	t.built, t.dt = true, math.Float64bits(dt)
	t.factorSoil(soil, dt)
	t.phenology = math.Min(1, dt/(10*86400.0))
	t.allocation = math.Min(1, dt/(5*86400.0))
	t.nppSmoothing = math.Min(1, dt/nppSmoothing)
	t.succession = math.Min(1, dt/SuccessionTime)
}

// NewModel assembles the land component on the land cells of mask.
func NewModel(g *grid.Grid, mask *grid.Mask, dev *exec.Device) *Model {
	s := NewState(g, mask)
	m := &Model{
		State:   s,
		Rivers:  NewRivers(s),
		Dev:     dev,
		tab:     newTables(s.Soil),
		fluxes:  NewFluxes(s.NLand()),
		outflow: make([]float64, s.NLand()),
	}
	m.discharge = make([]float64, len(m.Rivers.Mouths))
	m.cols = m.columns
	m.kernels = records(s.NLand())
	m.kernels[0].Run = m.pass
	return m
}

// records returns the launch records of one land step in launch order,
// each with the traffic and the field dependencies of its process, and
// none with a body.
func records(nLand int) []exec.Kernel {
	sfc := float64(nLand * 8)
	soil := float64(nLand * NSoil * 8)
	pftB := float64(nLand * 8 * 4) // small per-PFT working set
	ks := []exec.Kernel{
		{Name: "land:snowrain", Bytes: 3 * sfc,
			Reads: []string{"precip", "tsoil"}, Writes: []string{"snow", "skin"}},
		{Name: "land:snowmelt", Bytes: 3 * sfc,
			Reads: []string{"snow", "tsoil"}, Writes: []string{"snow", "skin", "tsoil"}},
		{Name: "land:infiltration", Bytes: soil + 2*sfc,
			Reads: []string{"skin", "wsoil"}, Writes: []string{"wsoil", "runoff", "skin"}},
		{Name: "land:evapotranspiration", Bytes: soil + 3*sfc,
			Reads: []string{"wsoil", "tsoil", "lai", "sw"}, Writes: []string{"wsoil", "et"}},
		{Name: "land:soiltemp", Bytes: 2*soil + 2*sfc,
			Reads: []string{"tsoil", "sw", "shf", "et"}, Writes: []string{"tsoil"}},
		{Name: "land:soilmoist", Bytes: 2 * soil,
			Reads: []string{"wsoil"}, Writes: []string{"wsoil", "runoff"}},
	}
	// Per-PFT vegetation records: 5 processes × 11 PFTs = 55 tiny kernels.
	neeChannels := make([]string, NumPFT)
	for p := range NumPFT {
		pn := fmt.Sprintf("pft%02d", p)
		pools, lai, nee := "pools:"+pn, "lai:"+pn, "nee:"+pn
		neeChannels[p] = nee
		ks = append(ks,
			exec.Kernel{Name: "veg:phenology:" + pn, Bytes: pftB,
				Reads: []string{"tsoil", "wsoil", pools}, Writes: []string{pools, lai}},
			// NEE accumulation is commutative (per-PFT atomic adds on the
			// GPU), so each PFT gets its own dependency channel; the
			// co2flux record reads them all.
			exec.Kernel{Name: "veg:photosynthesis:" + pn, Bytes: pftB,
				Reads: []string{"sw", "tsoil", "wsoil", lai, pools}, Writes: []string{pools, "npp:" + pn, nee}},
			exec.Kernel{Name: "veg:allocation:" + pn, Bytes: pftB,
				Reads: []string{"npp:" + pn, pools}, Writes: []string{pools, lai}},
			exec.Kernel{Name: "veg:turnover:" + pn, Bytes: pftB,
				Reads: []string{pools}, Writes: []string{pools}},
			exec.Kernel{Name: "veg:decay:" + pn, Bytes: pftB,
				Reads: []string{pools, "tsoil", "wsoil"}, Writes: []string{pools, nee}},
		)
	}
	return append(ks,
		exec.Kernel{Name: "land:dynveg", Bytes: 3 * pftB,
			Reads: neeChannels, Writes: []string{"cover"}},
		exec.Kernel{Name: "land:co2flux", Bytes: 2 * sfc,
			Reads: neeChannels, Writes: []string{"co2flux"}},
		exec.Kernel{Name: "land:rivers", Bytes: 2 * sfc,
			Reads: []string{"runoff"}, Writes: []string{"discharge"}},
	)
}

// Step advances the land by dt under forcing f. It returns the fluxes to
// the atmosphere and the river discharge per mouth of Rivers.Mouths
// (kg/s), both valid until the next Step.
func (m *Model) Step(dt float64, f *Forcing) (*Fluxes, []float64) {
	m.dt, m.forcing = dt, f
	m.tab.forDt(m.State.Soil, dt)
	if m.UseGraph {
		if m.graph == nil {
			m.Dev.BeginCapture()
			m.launch()
			g, err := m.Dev.EndCapture()
			if err != nil {
				panic(fmt.Sprintf("land: graph capture failed: %v", err))
			}
			m.graph = g
		}
		m.graph.Replay()
	} else {
		m.launch()
	}
	m.forcing = nil
	m.steps++
	return m.fluxes, m.discharge
}

func (m *Model) launch() {
	for _, k := range m.kernels {
		m.Dev.Launch(k)
	}
}

// pass is the body of the step's first record: every process on every
// land cell, cell-blocked over the worker pool, then the river fold.
func (m *Model) pass() {
	sched.Run(m.State.NLand(), m.cols)
	m.Rivers.fold(m.outflow, m.discharge)
}

// columns runs one land step on land cells [lo, hi): on each cell, the
// processes in the order of the launch records. Every process reads and
// writes only its own cell, so the cells are independent.
func (m *Model) columns(lo, hi int) {
	s, fl := m.State, m.fluxes
	for i := lo; i < hi; i++ {
		nee0 := s.CumNEE[i]
		m.soil(i)
		m.vegetation(i, m.forcing.SWDown[i])
		s.dynamicVegetation(i, m.tab.succession)
		fl.CO2Flux[i] = (s.CumNEE[i] - nee0) / m.dt * CToCO2
		m.outflow[i] = m.Rivers.release(i, m.dt)
	}
}

// KernelsPerStep is the number of kernels one land step launches eagerly.
func (m *Model) KernelsPerStep() int { return len(m.kernels) }

// Steps returns the completed step count.
func (m *Model) Steps() int { return m.steps }
