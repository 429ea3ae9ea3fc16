package ocean

import (
	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/vertical"
)

// Model is the ocean + sea-ice component as the coupler sees it. Its work
// is submitted as named kernels to an exec.Device — in the paper's mapping,
// a CPU device (the Grace side of the superchip), running concurrently
// with the GPU-resident atmosphere.
type Model struct {
	State *State
	Dyn   *Dynamics
	Dev   *exec.Device

	// CGAllreduces accumulates the number of global reductions performed by
	// the barotropic solver (2 per CG iteration + 2 setup), the quantity
	// the performance model multiplies by the machine's allreduce cost.
	CGAllreduces int64

	steps int

	// The step's launches, bound once by NewModel in launch order; the
	// step's arguments and the solver's error pass through the fields
	// below, so a steady-state Step allocates nothing.
	kernels []exec.Kernel
	dt      float64
	f       *Forcing
	err     error
}

// NewModel assembles the ocean on the wet cells of mask with timestep dt.
func NewModel(g *grid.Grid, mask *grid.Mask, vert *vertical.Ocean, dt float64, dev *exec.Device) *Model {
	s := NewState(g, mask, vert)
	s.InitAnalytic()
	m := &Model{State: s, Dyn: NewDynamics(s, dt), Dev: dev}
	cb, eb := m.cellBytes(), m.edgeBytes()
	m.kernels = []exec.Kernel{
		{Name: "ocean:pressure", Bytes: 3 * cb,
			Reads: []string{"temp", "salt"}, Writes: []string{"pbar"},
			Run: func() { m.Dyn.baroclinicPressure() }},
		{Name: "ocean:momentum", Bytes: 2*eb + cb,
			Reads: []string{"u", "pbar", "forcing"}, Writes: []string{"u"},
			Run: func() { m.Dyn.momentum(m.dt, m.f) }},
		{Name: "ocean:barotropic", Bytes: 2 * float64(s.NOcean()*8) * 20, // ~iterations × small 2-D sweeps
			Reads: []string{"eta", "ub", "u"}, Writes: []string{"eta", "ub"},
			Run: func() {
				m.err = m.Dyn.barotropic(m.dt, m.f)
				m.CGAllreduces += int64(2*m.Dyn.LastSolve.Iterations + 2)
			}},
		{Name: "ocean:advect", Bytes: 4*eb + 6*cb,
			Reads: []string{"u", "ub", "temp", "salt"}, Writes: []string{"temp", "salt", "massflux"},
			Run: func() { m.Dyn.advectTS(m.dt) }},
		{Name: "ocean:mixing", Bytes: 4 * cb,
			Reads: []string{"temp", "salt", "forcing"}, Writes: []string{"temp", "salt"},
			Run: func() {
				m.Dyn.verticalMixing(m.dt, m.f)
				m.Dyn.convectiveAdjust()
			}},
		{Name: "ocean:seaice", Bytes: 4 * float64(s.NOcean()*8),
			Reads: []string{"temp", "ice"}, Writes: []string{"temp", "ice"},
			Run: func() { m.Dyn.SeaIceStep(m.dt, m.f) }},
	}
	return m
}

func (m *Model) cellBytes() float64 {
	return float64(m.State.NOcean() * m.State.NLev * 8)
}

func (m *Model) edgeBytes() float64 {
	return float64(m.State.NEdgesOcean() * m.State.NLev * 8)
}

// Step advances the ocean by dt with forcing f, launching device kernels.
func (m *Model) Step(dt float64, f *Forcing) error {
	m.dt, m.f, m.err = dt, f, nil
	for _, k := range m.kernels {
		m.Dev.Launch(k)
	}
	m.f = nil
	m.steps++
	return m.err
}

// Steps returns the completed step count.
func (m *Model) Steps() int { return m.steps }

// BytesPerStep returns the modelled DRAM traffic of one ocean step.
func (m *Model) BytesPerStep() float64 {
	cb, eb := m.cellBytes(), m.edgeBytes()
	sfc := float64(m.State.NOcean() * 8)
	return 3*cb + (2*eb + cb) + 40*sfc + (4*eb + 6*cb) + 4*cb + 4*sfc
}
