package atmos

import (
	"math"
	"testing"

	"icoearth/internal/sched"
)

// TestThetaCurrentWhereRead: the momentum tendency (predictor and
// corrector) and the horizontal flux sweep read θ from State.Theta instead
// of dividing ρθ/ρ. At the entry of each of those sweeps Theta must hold
// exactly that quotient — after plain steps with physics and radiation
// rewriting ρθ behind it, after ρθ is perturbed between steps, and after
// another model's end-of-step fields are restored into a used model.
func TestThetaCurrentWhereRead(t *testing.T) {
	defer sched.SetWorkers(0)
	sched.SetWorkers(4)
	const dt = 150.0
	m, bc := oracleModel()
	m.Rad = NewRadiation()
	s, d := m.State, m.Dyn
	var sweeps int
	checked := func(name string, body func(lo, hi int)) func(lo, hi int) {
		return func(lo, hi int) {
			if lo == 0 { // once per dispatch; no sweep checked here writes ρ, ρθ or θ
				sweeps++
				for i, th := range s.Theta {
					if want := s.RhoTheta[i] / s.Rho[i]; math.Float64bits(th) != math.Float64bits(want) {
						t.Errorf("%s, step %d: Theta[%d] = %x, RhoTheta/Rho = %x", name, m.Steps(), i, th, want)
						break
					}
				}
			}
			body(lo, hi)
		}
	}
	d.parTend = checked("vn tendency", d.parTend)
	d.parFluxE = checked("flux sweep", d.parFluxE)

	for n := 0; n < 3; n++ {
		m.Step(dt, bc)
	}
	for i := range s.RhoTheta {
		s.RhoTheta[i] *= 1 + 1e-6*math.Sin(float64(i))
	}
	m.Step(dt, bc)
	donor, _ := oracleModel()
	donor.Step(dt, bc)
	for name, f := range modelFields(donor) {
		copy(modelFields(m)[name], f)
	}
	m.Step(dt, bc)
	if want := 3 * m.Steps(); sweeps != want {
		t.Fatalf("checked %d sweeps, want %d (predictor, fluxes, corrector per step)", sweeps, want)
	}
}

// TestModelStepSteadyStateAllocs: a warmed-up Model.Step allocates nothing —
// its launches are bound once by NewModel, every kernel body once by its
// owner, and exec.Device.Launch is allocation-free with tracing off — with
// the optional gray Radiation off and on.
func TestModelStepSteadyStateAllocs(t *testing.T) {
	defer sched.SetWorkers(0)
	sched.SetWorkers(4)
	for _, rad := range []bool{false, true} {
		m, bc := oracleModel()
		if rad {
			m.Rad = NewRadiation()
		}
		m.Step(150, bc) // binds the physics kernels, sizes the column scratch, spawns the workers
		if n := testing.AllocsPerRun(5, func() { m.Step(150, bc) }); n != 0 {
			t.Fatalf("Model.Step (radiation %v) allocates %.1f times per step, want 0", rad, n)
		}
	}
}
