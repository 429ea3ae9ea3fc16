package bgc

import (
	"icoearth/internal/exec"
	"icoearth/internal/ocean"
)

// Model is the biogeochemistry component. Following the paper (§5.1), it
// can run in two configurations:
//
//   - Fused: on the same (CPU) device as the ocean, sharing its transport
//     directly — "include the biogeochemistry together with the ocean on
//     the CPU ... essentially get it for free".
//   - Concurrent: on a separate (GPU) device; the price is that the 19
//     three-dimensional tracer fields must be exchanged with the ocean
//     every ocean step, which the device clock charges as transfer kernels
//     (the paper: "large three-dimensional fields need to be exchanged ...
//     therefore exploiting concurrent GPU parallelism in HAMOCC is not
//     beneficial in all cases").
type Model struct {
	State  *State
	Params Params
	Dev    *exec.Device

	// Concurrent simulates the Linardakis-style concurrent configuration:
	// tracer fields are copied between ocean and BGC devices every step.
	Concurrent bool
	// TransferBW is the modelled host↔device bandwidth used for the
	// concurrent exchange (NVLink-C2C: 900 GB/s per direction).
	TransferBW float64

	steps int

	// The step's launches, bound once by NewModel in launch order; the
	// step's arguments pass through args and dyn, so a steady-state Step
	// allocates nothing.
	kernels []exec.Kernel
	args    kernelArgs
	dyn     *ocean.Dynamics
}

// NewModel builds the BGC component over an existing ocean state.
func NewModel(oc *ocean.State, dev *exec.Device) *Model {
	m := &Model{
		State:      NewState(oc),
		Params:     DefaultParams(),
		Dev:        dev,
		TransferBW: 900e9,
	}
	m.bind()
	return m
}

// tracerBytes is the size of all 19 tracer fields.
func (m *Model) tracerBytes() float64 {
	return float64(NumTracers * m.State.Oc.NOcean() * m.State.Oc.NLev * 8)
}

// bind builds the launch list. The two transfers have no body; Step gives
// them their traffic, which depends on the device of the moment.
func (m *Model) bind() {
	tb := m.tracerBytes()
	m.kernels = []exec.Kernel{
		{Name: "bgc:xfer-in",
			Reads: []string{"ocean-fields"}, Writes: []string{"tracers"}},
		{Name: "bgc:transport", Bytes: 2 * tb,
			Reads: []string{"tracers", "massflux"}, Writes: []string{"tracers"},
			Run: func() { m.dyn.AdvectTracers(m.State.Tracers[:], m.args.dt) }},
		{Name: "bgc:ecosystem", Bytes: tb,
			Reads: []string{"tracers", "sw"}, Writes: []string{"tracers"},
			Run: func() { m.State.EcosystemKernel(m.args.dt, &m.Params, m.args.sw) }},
		{Name: "bgc:sinking", Bytes: 3 * tb / NumTracers * 2,
			Reads: []string{"tracers"}, Writes: []string{"tracers"},
			Run: func() { m.State.SinkingKernel(m.args.dt, &m.Params) }},
		{Name: "bgc:airsea", Bytes: float64(m.State.Oc.NOcean() * 8 * 6),
			Reads: []string{"tracers", "wind", "pco2"}, Writes: []string{"tracers", "co2flux"},
			Run: func() { m.State.AirSeaFluxKernel(m.args.dt, m.args.pco2Atm, m.args.wind, m.args.iceFrac) }},
		{Name: "bgc:xfer-out",
			Reads: []string{"tracers"}, Writes: []string{"ocean-fields"}},
	}
}

// Step advances the biogeochemistry by dt: transport of all tracers with
// the ocean's stored mass fluxes, ecosystem dynamics, particle sinking and
// air–sea exchange. dyn must be the ocean dynamics that produced the
// current mass fluxes; swDown, pco2Atm, wind, iceFrac are per-ocean-cell
// boundary fields.
func (m *Model) Step(dt float64, dyn *ocean.Dynamics, swDown, pco2Atm, wind, iceFrac []float64) {
	m.dyn = dyn
	m.args = kernelArgs{dt: dt, sw: swDown, pco2Atm: pco2Atm, wind: wind, iceFrac: iceFrac}
	for _, k := range m.kernels {
		if k.Run == nil {
			// The concurrent configuration pays the field exchange both
			// ways, as time-equivalent traffic on its device.
			if !m.Concurrent {
				continue
			}
			k.Bytes = m.tracerBytes() * m.Dev.Spec.MemBW / m.TransferBW
		}
		m.Dev.Launch(k)
	}
	m.dyn, m.args = nil, kernelArgs{}
	m.steps++
}

// Steps returns the completed step count.
func (m *Model) Steps() int { return m.steps }
