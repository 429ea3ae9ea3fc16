package land

import (
	"math"
	"slices"
	"testing"

	"icoearth/internal/exec"
	"icoearth/internal/grid"
)

func testLand() *State {
	g := grid.New(grid.R2B(2))
	return NewState(g, grid.NewMask(g))
}

func testForcing(s *State) *Forcing {
	f := NewForcing(s.NLand())
	for i, c := range s.Cells {
		lat, _ := s.G.CellCenter[c].LatLon()
		f.SWDown[i] = 340 * math.Cos(lat) * math.Cos(lat)
		f.TAir[i] = 288 - 30*math.Sin(lat)*math.Sin(lat)
		f.Precip[i] = 3e-5 * math.Cos(lat)
	}
	return f
}

func TestStateSetup(t *testing.T) {
	s := testLand()
	if s.NLand() == 0 {
		t.Fatal("no land cells")
	}
	if NumPools != 21 {
		t.Fatalf("NumPools = %d, want 21 (Table 2)", NumPools)
	}
	// Cover fractions within [0,1] and at most 1 total.
	for i := range s.Cells {
		var sum float64
		for p := 0; p < NumPFT; p++ {
			cv := s.Cover[i*NumPFT+p]
			if cv < 0 || cv > 1 {
				t.Fatalf("cover out of range: %v", cv)
			}
			sum += cv
		}
		if sum > 1+1e-12 {
			t.Fatalf("cover sum %v > 1 at %d", sum, i)
		}
	}
	// PFT parameter sanity: allocation fractions ≤ 1.
	for _, p := range s.PFTs {
		if a := p.AllocLeaf + p.AllocWood + p.AllocRoot + p.AllocFruit; a > 1 {
			t.Errorf("PFT %s allocates %v > 1", p.Name, a)
		}
	}
}

// TestSnowRainSplit holds one process on its own, which the fused step
// cannot isolate: it runs the retired kernel of oracle_test.go, and
// TestStepMatchesKernelSequence ties the step to that kernel bit for bit.
// So do TestInfiltrationAndRunoff and TestLAIRespondsToSeason.
func TestSnowRainSplit(t *testing.T) {
	s := testLand()
	f := NewForcing(s.NLand())
	for i := range f.Precip {
		f.Precip[i] = 1e-4
	}
	// Find one warm and one cold cell.
	warm, cold := -1, -1
	for i := range s.Cells {
		if s.SurfaceTemp(i) > TMelt+5 && warm < 0 {
			warm = i
		}
		if s.SurfaceTemp(i) < TMelt-5 && cold < 0 {
			cold = i
		}
	}
	if warm < 0 || cold < 0 {
		t.Skip("need both climates")
	}
	snow0, skin0 := s.Snow[cold], s.Skin[warm]
	s.SnowAndRainKernel(600, f)
	if s.Snow[cold] <= snow0 {
		t.Error("cold cell did not accumulate snow")
	}
	if s.Skin[warm] <= skin0 {
		t.Error("warm cell did not receive rain")
	}
}

// TestInfiltrationAndRunoff runs the retired infiltration kernel (see
// TestSnowRainSplit).
func TestInfiltrationAndRunoff(t *testing.T) {
	s := testLand()
	i := 0
	// Saturate the column, then add water: all must become runoff.
	for k := 0; k < NSoil; k++ {
		s.SoilMoist[i*NSoil+k] = 1
	}
	s.Skin[i] = 10
	r0 := s.Runoff[i]
	s.InfiltrationKernel(600)
	if math.Abs(s.Runoff[i]-r0-10) > 1e-9 {
		t.Errorf("saturated runoff = %v, want 10", s.Runoff[i]-r0)
	}
	// Dry column absorbs.
	for k := 0; k < NSoil; k++ {
		s.SoilMoist[i*NSoil+k] = 0
	}
	s.Skin[i] = 5
	r1 := s.Runoff[i]
	s.InfiltrationKernel(600)
	if s.Runoff[i] != r1 {
		t.Errorf("dry soil produced runoff")
	}
	var got float64
	for k := 0; k < NSoil; k++ {
		capK := SatCapacity * s.Soil.Thickness[k] / s.Soil.TotalDepth()
		got += s.SoilMoist[i*NSoil+k] * capK
	}
	if math.Abs(got-5) > 1e-9 {
		t.Errorf("infiltrated %v, want 5", got)
	}
}

// TestWaterConservation: over land steps, the land's water changes by the
// precipitation less the evapotranspiration and the river discharge.
func TestWaterConservation(t *testing.T) {
	g := grid.New(grid.R2B(2))
	m := NewModel(g, grid.NewMask(g), newTestDevice())
	s := m.State
	f := testForcing(s)
	w0 := s.TotalWater()
	var precipIn, out float64
	const dt = 1800
	for n := 0; n < 20; n++ {
		fl, dis := m.Step(dt, f)
		for i, c := range s.Cells {
			precipIn += f.Precip[i] * dt * s.G.CellArea[c]
			out += fl.Evapotranspiration[i] * dt * s.G.CellArea[c]
		}
		for _, v := range dis {
			out += v * dt
		}
	}
	w1 := s.TotalWater()
	if rel := math.Abs(w1-w0-(precipIn-out)) / precipIn; rel > 1e-9 {
		t.Errorf("water budget error = %e (got %v want %v)", rel, w1-w0, precipIn-out)
	}
	if out <= 0 {
		t.Errorf("no water left the land: %v", out)
	}
}

// TestCarbonConservation: the fundamental invariant — pool inventory plus
// cumulative boundary flux is constant.
func TestCarbonConservation(t *testing.T) {
	g := grid.New(grid.R2B(2))
	m := NewModel(g, grid.NewMask(g), newTestDevice())
	s := m.State
	f := testForcing(s)
	invariant := func() float64 {
		total := s.TotalCarbon()
		for i, c := range s.Cells {
			total += s.CumNEE[i] * s.G.CellArea[c]
		}
		return total
	}
	i0 := invariant()
	const dt = 3600
	for n := 0; n < 100; n++ {
		m.Step(dt, f)
	}
	i1 := invariant()
	if rel := math.Abs(i1-i0) / math.Abs(i0); rel > 1e-10 {
		t.Errorf("carbon invariant drift = %e", rel)
	}
	// Pools must stay non-negative.
	for i, v := range s.Pools {
		if v < 0 {
			t.Fatalf("negative pool at %d: %v", i, v)
		}
	}
}

// TestPhotosynthesisUptake: sunny warm moist cells take up carbon — their
// NPP, the uptake photosynthesis books against CumNEE net of autotrophic
// respiration, is positive. The step reports it through the smoothed
// productivity: from NPPAvg = 0, one step leaves min(1, dt/30 days)·NPP.
func TestPhotosynthesisUptake(t *testing.T) {
	g := grid.New(grid.R2B(2))
	m := NewModel(g, grid.NewMask(g), newTestDevice())
	s := m.State
	f := testForcing(s)
	// Pick a tropical land cell with vegetation.
	best := -1
	for i, c := range s.Cells {
		lat, _ := s.G.CellCenter[c].LatLon()
		if math.Abs(lat) < 0.3 && s.Cover[i*NumPFT+0] > 0 {
			best = i
			break
		}
	}
	if best < 0 {
		t.Skip("no tropical land cell on this grid")
	}
	// A day of hourly steps gives it leaves.
	for n := 0; n < 24; n++ {
		m.Step(3600, f)
	}
	idx := best*NumPFT + 0
	s.NPPAvg[idx] = 0
	m.Step(3600, f)
	if s.NPPAvg[idx] <= 0 {
		t.Errorf("no net uptake in tropical daylight: NPP·min(1, dt/30 d) = %v", s.NPPAvg[idx])
	}
	// The next hour in the dark: respiration only.
	s.NPPAvg[idx], f.SWDown[best] = 0, 0
	m.Step(3600, f)
	if s.NPPAvg[idx] >= 0 {
		t.Errorf("net uptake in the dark: NPP·min(1, dt/30 d) = %v", s.NPPAvg[idx])
	}
}

func TestSoilTemperatureRelaxes(t *testing.T) {
	g := grid.New(grid.R2B(2))
	m := NewModel(g, grid.NewMask(g), newTestDevice())
	s := m.State
	f := testForcing(s)
	// Long integration: surface temperature must stay bounded.
	for n := 0; n < 200; n++ {
		m.Step(3600, f)
	}
	for i := range s.Cells {
		ts := s.SurfaceTemp(i)
		if ts < 150 || ts > 360 {
			t.Fatalf("surface temp %v out of range", ts)
		}
	}
}

func TestRiversDrainToOcean(t *testing.T) {
	s := testLand()
	r := NewRivers(s)
	for i := range s.Cells {
		if r.DrainTarget[i] < 0 {
			t.Fatalf("land cell %d has no drain target", i)
		}
		if s.Mask.IsLand[r.DrainTarget[i]] {
			t.Fatalf("drain target %d is land", r.DrainTarget[i])
		}
	}
	// Discharge conserves water: runoff removed = discharge × dt / area.
	for i := range s.Cells {
		s.Runoff[i] = 7
	}
	w0 := s.TotalWater()
	const dt = 3600
	release, dis := make([]float64, s.NLand()), make([]float64, len(r.Mouths))
	for i := range s.Cells {
		release[i] = r.release(i, dt)
	}
	r.fold(release, dis)
	var out float64
	for _, v := range dis {
		out += v * dt
	}
	w1 := s.TotalWater()
	if rel := math.Abs(w0-w1-out) / out; rel > 1e-9 {
		t.Errorf("discharge budget error = %e", rel)
	}
	if len(dis) == 0 {
		t.Error("no discharge targets")
	}
	if !slices.IsSorted(r.Mouths) || len(slices.Compact(slices.Clone(r.Mouths))) != len(r.Mouths) {
		t.Errorf("mouths not strictly ascending: %v", r.Mouths)
	}
}

func TestModelStepAndGraphEquivalence(t *testing.T) {
	g := grid.New(grid.R2B(2))
	mask := grid.NewMask(g)
	spec := exec.DeviceSpec{Name: "gpu", MemBW: 1e12, LaunchLatency: 5e-6, HalfSatBytes: 32e6, GraphReplayLatency: 1e-5, PowerIdle: 50, PowerMax: 400}

	run := func(useGraph bool, steps int) (*Model, *exec.Device) {
		dev := exec.NewDevice(spec)
		m := NewModel(g, mask, dev)
		m.UseGraph = useGraph
		f := testForcing(m.State)
		for n := 0; n < steps; n++ {
			m.Step(1800, f)
		}
		return m, dev
	}

	eager, edev := run(false, 5)
	graph, gdev := run(true, 5)

	// Bit-identical state evolution.
	for i := range eager.State.Pools {
		if eager.State.Pools[i] != graph.State.Pools[i] {
			t.Fatalf("pool %d differs: %v vs %v", i, eager.State.Pools[i], graph.State.Pools[i])
		}
	}
	for i := range eager.State.SoilTemp {
		if eager.State.SoilTemp[i] != graph.State.SoilTemp[i] {
			t.Fatalf("soil temp %d differs", i)
		}
	}
	// Graph must be faster on the simulated clock (the paper's 8–10×).
	speedup := edev.SimTime() / gdev.SimTime()
	if speedup < 3 {
		t.Errorf("graph speedup = %.2f, want ≥3 for the many-small-kernel land step", speedup)
	}
	t.Logf("land graph speedup: %.1f×", speedup)
	if eager.KernelsPerStep() != 9+5*NumPFT {
		t.Errorf("kernels per step = %d", eager.KernelsPerStep())
	}
}

func TestModelFluxesPopulated(t *testing.T) {
	g := grid.New(grid.R2B(2))
	mask := grid.NewMask(g)
	dev := exec.NewDevice(exec.DeviceSpec{Name: "gpu", MemBW: 1e12, LaunchLatency: 1e-6, HalfSatBytes: 1e6, PowerIdle: 10, PowerMax: 100})
	m := NewModel(g, mask, dev)
	f := testForcing(m.State)
	fl, dis := m.Step(1800, f)
	var anyET, anyCO2 bool
	for i := range fl.Evapotranspiration {
		if fl.Evapotranspiration[i] > 0 {
			anyET = true
		}
		if fl.CO2Flux[i] != 0 {
			anyCO2 = true
		}
	}
	if !anyET {
		t.Error("no evapotranspiration anywhere")
	}
	if !anyCO2 {
		t.Error("no CO2 flux anywhere")
	}
	_ = dis
	if m.Steps() != 1 {
		t.Errorf("steps = %d", m.Steps())
	}
}

// TestLAIRespondsToSeason runs the retired phenology kernel (see
// TestSnowRainSplit).
func TestLAIRespondsToSeason(t *testing.T) {
	s := testLand()
	// A temperate deciduous cell: warm → grows leaves; freeze → sheds.
	best := -1
	for i := range s.Cells {
		if s.Cover[i*NumPFT+3] > 0 {
			best = i
			break
		}
	}
	if best < 0 {
		t.Skip("no temperate cell")
	}
	// Warm moist conditions.
	for k := 0; k < NSoil; k++ {
		s.SoilTemp[best*NSoil+k] = TMelt + 16
		s.SoilMoist[best*NSoil+k] = 0.7
	}
	s.poolSlice(best, 3)[PoolReserve] = 1.0
	for n := 0; n < 40; n++ {
		s.PhenologyKernel(86400, 3)
	}
	grown := s.LAI[best*NumPFT+3]
	if grown <= 0.1 {
		t.Fatalf("no leaf growth in warm season: LAI=%v", grown)
	}
	// Deep freeze.
	for k := 0; k < NSoil; k++ {
		s.SoilTemp[best*NSoil+k] = TMelt - 20
	}
	for n := 0; n < 40; n++ {
		s.PhenologyKernel(86400, 3)
	}
	if s.LAI[best*NumPFT+3] > 0.5*grown {
		t.Errorf("leaves not shed in winter: %v → %v", grown, s.LAI[best*NumPFT+3])
	}
}
