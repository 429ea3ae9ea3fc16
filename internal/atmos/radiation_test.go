package atmos

import (
	"math"
	"slices"
	"testing"

	"icoearth/internal/grid"
	"icoearth/internal/vertical"
)

func radSetup() (*State, atmosBC) {
	g := grid.New(grid.R2B(1))
	vert := vertical.NewAtmosphere(12, 30000, 300)
	s := NewState(g, vert)
	s.InitIsothermalRest(288)
	s.InitTracers()
	bc := atmosBC{Tsfc: make([]float64, g.NCells), IsWater: make([]bool, g.NCells)}
	for c := range bc.Tsfc {
		bc.Tsfc[c] = 290
	}
	return s, bc
}

// atmosBC aliases SurfaceBC for brevity in this file.
type atmosBC = SurfaceBC

// TestRadiationEnergyClosure: for every column, the applied heating
// matches the boundary fluxes exactly.
func TestRadiationEnergyClosure(t *testing.T) {
	s, bc := radSetup()
	r := NewRadiation()
	fluxes := r.Step(s, 600, bc)
	for c, f := range fluxes {
		if err := math.Abs(f.EnergyClosure()); err > 1e-9*math.Abs(f.OLR) {
			t.Fatalf("column %d: closure error %v (OLR %v)", c, err, f.OLR)
		}
	}
}

// TestRadiationOLRRange: outgoing longwave is in the physical range and
// below the surface emission (greenhouse effect of the gray absorber).
func TestRadiationOLR(t *testing.T) {
	s, bc := radSetup()
	r := NewRadiation()
	fluxes := r.Step(s, 600, bc)
	for c, f := range fluxes {
		if f.OLR < 80 || f.OLR > 500 {
			t.Fatalf("column %d: OLR = %v W/m²", c, f.OLR)
		}
		if f.OLR >= f.SfcLWUp {
			t.Fatalf("column %d: no greenhouse effect (OLR %v ≥ sfc %v)", c, f.OLR, f.SfcLWUp)
		}
		if f.SfcLWDown <= 0 {
			t.Fatalf("column %d: no back radiation", c)
		}
	}
}

// TestRadiationCO2Greenhouse: doubling CO₂ lowers OLR at fixed state (the
// radiative forcing that makes the carbon cycle matter).
func TestRadiationCO2Greenhouse(t *testing.T) {
	s, bc := radSetup()
	r := NewRadiation()
	base := slices.Clone(r.Step(s, 0, bc)) // dt=0: diagnostics only, no heating applied

	s2, _ := radSetup()
	for i := range s2.Tracers[TracerCO2] {
		s2.Tracers[TracerCO2][i] *= 2
	}
	doubled := r.Step(s2, 0, bc)

	var dOLR float64
	for c := range base {
		dOLR += base[c].OLR - doubled[c].OLR
	}
	dOLR /= float64(len(base))
	if dOLR <= 0 {
		t.Errorf("doubling CO2 did not reduce OLR: Δ=%v", dOLR)
	}
	if dOLR > 40 {
		t.Errorf("2×CO2 forcing %v W/m² implausibly large", dOLR)
	}
}

// TestRadiationMoistGreenhouse: a moister column has lower OLR.
func TestRadiationMoistGreenhouse(t *testing.T) {
	s, bc := radSetup()
	r := NewRadiation()
	base := slices.Clone(r.Step(s, 0, bc))
	for i := range s.Tracers[TracerQV] {
		s.Tracers[TracerQV][i] *= 2
	}
	moist := r.Step(s, 0, bc)
	// The isothermal test column is only 2 K colder than the surface, so
	// the effect is small but must have the greenhouse sign in the global
	// mean (tropical columns dominate; polar columns are nearly dry).
	var d float64
	for c := range base {
		d += base[c].OLR - moist[c].OLR
	}
	if d <= 0 {
		t.Errorf("moistening did not reduce mean OLR: Δsum=%v", d)
	}
}

// TestRadiationCoolsIsothermalColumn: with a surface at the air
// temperature, the gray atmosphere must cool radiatively (emission exceeds
// absorption aloft) — the destabilisation that drives convection.
func TestRadiationCoolsColumn(t *testing.T) {
	s, bc := radSetup()
	for c := range bc.Tsfc {
		bc.Tsfc[c] = 288 // same as the air
	}
	r := NewRadiation()
	t0 := meanTemp(s)
	for n := 0; n < 20; n++ {
		r.Step(s, 600, bc)
	}
	t1 := meanTemp(s)
	if t1 >= t0 {
		t.Errorf("column did not cool radiatively: %v → %v", t0, t1)
	}
	// And cooling is gentle (no runaway): < 2 K over ~3.3 hours.
	if t0-t1 > 2 {
		t.Errorf("cooling too fast: %v K", t0-t1)
	}
}

// TestRadiationWarmSurfaceHeatsAir: a much warmer surface heats the
// lowest layers through absorption of its emission.
func TestRadiationWarmSurfaceHeats(t *testing.T) {
	s, bc := radSetup()
	for c := range bc.Tsfc {
		bc.Tsfc[c] = 320
	}
	r := NewRadiation()
	nlev := s.NLev
	i := 0*nlev + nlev - 1
	tBefore := s.Theta[i] * s.Exner[i]
	for n := 0; n < 10; n++ {
		r.Step(s, 600, bc)
	}
	tAfter := s.Theta[i] * s.Exner[i]
	if tAfter <= tBefore {
		t.Errorf("hot surface did not warm the boundary layer: %v → %v", tBefore, tAfter)
	}
}

func meanTemp(s *State) float64 {
	var sum float64
	for i := range s.Theta {
		sum += s.Theta[i] * s.Exner[i]
	}
	return sum / float64(len(s.Theta))
}
