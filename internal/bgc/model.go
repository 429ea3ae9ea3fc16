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
}

// NewModel builds the BGC component over an existing ocean state.
func NewModel(oc *ocean.State, dev *exec.Device) *Model {
	return &Model{
		State:      NewState(oc),
		Params:     DefaultParams(),
		Dev:        dev,
		TransferBW: 900e9,
	}
}

// tracerBytes is the size of all 19 tracer fields.
func (m *Model) tracerBytes() float64 {
	return float64(NumTracers * m.State.Oc.NOcean() * m.State.Oc.NLev * 8)
}

// Step advances the biogeochemistry by dt: transport of all tracers with
// the ocean's stored mass fluxes, ecosystem dynamics, particle sinking and
// air–sea exchange. dyn must be the ocean dynamics that produced the
// current mass fluxes; swDown, pco2Atm, wind, iceFrac are per-ocean-cell
// boundary fields.
func (m *Model) Step(dt float64, dyn *ocean.Dynamics, swDown, pco2Atm, wind, iceFrac []float64) {
	tb := m.tracerBytes()
	if m.Concurrent {
		// The concurrent configuration pays the field exchange both ways.
		m.Dev.Launch(exec.Kernel{
			Name:  "bgc:xfer-in",
			Bytes: tb * m.Dev.Spec.MemBW / m.TransferBW, // time-equivalent traffic
			Reads: []string{"ocean-fields"}, Writes: []string{"tracers"},
		})
	}
	m.Dev.Launch(exec.Kernel{
		Name: "bgc:transport", Bytes: 2 * tb,
		Reads: []string{"tracers", "massflux"}, Writes: []string{"tracers"},
		Run: func() { dyn.AdvectTracers(m.State.Tracers[:], dt) },
	})
	m.Dev.Launch(exec.Kernel{
		Name: "bgc:ecosystem", Bytes: tb,
		Reads: []string{"tracers", "sw"}, Writes: []string{"tracers"},
		Run: func() { m.State.EcosystemKernel(dt, &m.Params, swDown) },
	})
	m.Dev.Launch(exec.Kernel{
		Name: "bgc:sinking", Bytes: 3 * tb / NumTracers * 2,
		Reads: []string{"tracers"}, Writes: []string{"tracers"},
		Run: func() { m.State.SinkingKernel(dt, &m.Params) },
	})
	m.Dev.Launch(exec.Kernel{
		Name: "bgc:airsea", Bytes: float64(m.State.Oc.NOcean() * 8 * 6),
		Reads: []string{"tracers", "wind", "pco2"}, Writes: []string{"tracers", "co2flux"},
		Run: func() { m.State.AirSeaFluxKernel(dt, pco2Atm, wind, iceFrac) },
	})
	if m.Concurrent {
		m.Dev.Launch(exec.Kernel{
			Name:  "bgc:xfer-out",
			Bytes: tb * m.Dev.Spec.MemBW / m.TransferBW,
			Reads: []string{"tracers"}, Writes: []string{"ocean-fields"},
		})
	}
	m.steps++
}

// Steps returns the completed step count.
func (m *Model) Steps() int { return m.steps }
