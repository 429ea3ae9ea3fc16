package atmos

import (
	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/vertical"
)

// Model is the atmosphere component as the coupler sees it: it owns the
// state, dynamical core and physics, and submits its work as named kernels
// to an exec.Device so that the simulated-machine clock and per-kernel
// statistics reflect the paper's kernel structure (data stays "resident"
// on the device — no transfers appear between kernels).
type Model struct {
	State *State
	Dyn   *Dycore
	Phys  *Physics
	// Rad, when non-nil, applies gray two-stream radiation each step (the
	// alternative to pure Held-Suarez forcing).
	Rad *Radiation
	Dev *exec.Device

	rhoOld []float64
	steps  int

	// The step's launches, bound once by NewModel in launch order; the
	// step's arguments and the physics' result pass through the fields
	// below, so a steady-state Step allocates nothing.
	kernels []exec.Kernel
	dt      float64
	bc      SurfaceBC
	fluxes  *SurfaceFluxes
}

// NewModel assembles the atmosphere on grid g with the given vertical
// coordinate, executing on dev.
func NewModel(g *grid.Grid, vert *vertical.Atmosphere, dev *exec.Device) *Model {
	s := NewState(g, vert)
	m := &Model{
		State:  s,
		Dyn:    NewDycore(s),
		Phys:   NewPhysics(s),
		Dev:    dev,
		rhoOld: make([]float64, g.NCells*vert.NLev),
	}
	d := m.Dyn
	run := map[string]func(){
		"dycore:diag":       func() { s.UpdateDiagnostics() },
		"dycore:ekinh":      func() { d.KineticEnergyKernel() },
		"dycore:tangential": func() { d.TangentialKernel() },
		"dycore:vn_pred":    func() { d.StagePredictor(m.dt) },
		"dycore:hflux":      func() { d.StageHorizontalFluxes(m.dt) },
		"dycore:vsolve":     func() { d.StageVertical(m.dt) },
		"dycore:vn_corr":    func() { d.StageCorrector(m.dt) },
		"dycore:damp":       func() { d.StageDamping(m.dt) },
		"transport":         func() { d.Transport(m.dt, m.rhoOld) },
		"radiation":         func() { m.Rad.Step(s, m.dt, m.bc) },
		"physics":           func() { m.fluxes = m.Phys.Step(m.dt, m.bc) },
	}
	for _, f := range launches {
		if run[f.name] == nil {
			panic("atmos: no kernel bound for launch " + f.name)
		}
		m.kernels = append(m.kernels, exec.Kernel{Name: f.name, Bytes: m.bytes(f), Reads: f.reads, Writes: f.writes, Run: run[f.name]})
	}
	return m
}

// footprint is the declared access set of one launch: modelled DRAM
// traffic in whole cell×level and edge×level fields, and the fields read
// and written.
type footprint struct {
	name          string
	cells, edges  float64
	reads, writes []string
}

// launches lists the kernels of one step in launch order. NewModel binds
// one exec.Kernel to each, Step charges these figures and BytesPerStep
// sums them, so the three cannot disagree.
var launches = []footprint{
	{"dycore:diag", 4, 0, []string{"rho", "rhotheta"}, []string{"exner", "theta"}},
	{"dycore:ekinh", 1, 1, []string{"vn"}, []string{"ke"}},
	{"dycore:tangential", 1, 2, []string{"vn"}, []string{"vt"}},
	{"dycore:vn_pred", 3, 3, []string{"vn", "exner", "ke", "vt", "theta"}, []string{"vn_pred", "vn_adv"}},
	{"dycore:hflux", 4, 4, []string{"vn", "vn_pred", "rho", "rhotheta", "theta"}, []string{"rho", "rhotheta", "massflux"}},
	{"dycore:vsolve", 6, 0, []string{"rho", "rhotheta", "w"}, []string{"w", "rho", "rhotheta", "massflux_v"}},
	{"dycore:vn_corr", 5, 3, []string{"vn", "exner", "rho", "rhotheta", "vn_adv"}, []string{"vn", "exner", "theta"}},
	{"dycore:damp", 1, 2, []string{"vn", "w"}, []string{"vn", "w"}},
	{"transport", 2 * NumTracers, NumTracers, []string{"massflux", "massflux_v", "rho", "tracers"}, []string{"tracers"}},
	{"radiation", 5, 0, []string{"rho", "rhotheta", "exner", "tracers"}, []string{"rhotheta", "radflux"}},
	{"physics", 6, 0, []string{"rho", "rhotheta", "exner", "tracers", "vn"}, []string{"rhotheta", "tracers", "vn", "sfcflux"}},
}

// bytes returns the launch's modelled DRAM traffic on this model's grid.
func (m *Model) bytes(f footprint) float64 {
	s := m.State
	return (f.cells*float64(s.G.NCells) + f.edges*float64(s.G.NEdges)) * float64(s.NLev*8)
}

// Step advances the atmosphere by dt, launching the dycore stages, tracer
// transport and physics as device kernels, and returns the surface fluxes
// for the coupler (valid until the next Step).
func (m *Model) Step(dt float64, bc SurfaceBC) *SurfaceFluxes {
	copy(m.rhoOld, m.State.Rho)
	m.dt, m.bc, m.fluxes = dt, bc, nil
	for _, k := range m.kernels {
		if k.Name != "radiation" || m.Rad != nil {
			m.Dev.Launch(k)
		}
	}
	m.bc = SurfaceBC{}
	m.steps++
	return m.fluxes
}

// Steps returns the number of completed steps.
func (m *Model) Steps() int { return m.steps }

// BytesPerStep returns the modelled DRAM traffic of one full atmosphere
// step, the quantity the performance model scales to paper-size grids.
func (m *Model) BytesPerStep() float64 {
	var sum float64
	for _, f := range launches {
		if f.name != "radiation" || m.Rad != nil {
			sum += m.bytes(f)
		}
	}
	return sum
}
