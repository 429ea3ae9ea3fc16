package bgc

import (
	"math"
	"testing"
	"testing/quick"

	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/ocean"
	"icoearth/internal/sched"
	"icoearth/internal/vertical"
)

func testSetup() (*ocean.State, *ocean.Dynamics, *State) {
	g := grid.New(grid.R2B(2))
	mask := grid.NewMask(g)
	vert := vertical.NewOcean(10, 4000, 50)
	oc := ocean.NewState(g, mask, vert)
	oc.InitAnalytic()
	dyn := ocean.NewDynamics(oc, 600)
	return oc, dyn, NewState(oc)
}

func surfaceFields(oc *ocean.State) (sw, pco2, wind, ice []float64) {
	n := oc.NOcean()
	sw = make([]float64, n)
	pco2 = make([]float64, n)
	wind = make([]float64, n)
	ice = make([]float64, n)
	for i := range sw {
		lat, _ := oc.G.CellCenter[oc.Cells[i]].LatLon()
		sw[i] = 340 * math.Cos(lat) * math.Cos(lat)
		pco2[i] = 420
		wind[i] = 7
	}
	return sw, pco2, wind, ice
}

func TestNineteenTracers(t *testing.T) {
	if NumTracers != 19 {
		t.Fatalf("NumTracers = %d, want 19 (Table 2)", NumTracers)
	}
}

func TestInitialFieldsPhysical(t *testing.T) {
	_, _, s := testSetup()
	oc := s.Oc
	for i := range oc.Cells {
		for k := 0; k < oc.NLev; k++ {
			idx := i*oc.NLev + k
			if s.Tracers[TrDIC][idx] < 1.5 || s.Tracers[TrDIC][idx] > 3 {
				t.Fatalf("DIC %v out of range", s.Tracers[TrDIC][idx])
			}
			if s.Tracers[TrAlk][idx] < s.Tracers[TrDIC][idx]*0.9 {
				t.Fatalf("Alk/DIC ratio unphysical at %d", idx)
			}
			if s.Tracers[TrPO4][idx] < 0 || s.Tracers[TrO2][idx] < 0 {
				t.Fatalf("negative nutrient/oxygen")
			}
		}
		// Nutrients increase with depth (biological pump signature).
		if s.Tracers[TrPO4][i*oc.NLev] > s.Tracers[TrPO4][i*oc.NLev+oc.NLev-1] {
			t.Fatalf("PO4 profile inverted at %d", i)
		}
	}
}

func TestCarbonateChemistry(t *testing.T) {
	// Typical surface sea water: pCO2 in a plausible range and responsive
	// to DIC in the right direction.
	p1 := PCO2(2.0, 2.3, 15)
	if p1 < 50 || p1 > 2000 {
		t.Errorf("pCO2(2.0,2.3,15°C) = %v µatm, outside plausible range", p1)
	}
	// More DIC at fixed Alk → higher pCO2.
	p2 := PCO2(2.1, 2.3, 15)
	if p2 <= p1 {
		t.Errorf("pCO2 not increasing with DIC: %v → %v", p1, p2)
	}
	// Warmer water → higher pCO2 (solubility).
	p3 := PCO2(2.0, 2.3, 25)
	if p3 <= p1 {
		t.Errorf("pCO2 not increasing with T: %v → %v", p1, p3)
	}
	// More alkalinity → lower pCO2.
	p4 := PCO2(2.0, 2.45, 15)
	if p4 >= p1 {
		t.Errorf("pCO2 not decreasing with Alk: %v → %v", p1, p4)
	}
}

func TestSolveCarbonateConsistency(t *testing.T) {
	// The solver's H+ must reproduce the input alkalinity.
	f := func(dicRaw, alkRaw, tRaw float64) bool {
		dic := 1.8 + math.Mod(math.Abs(dicRaw), 0.6)
		alk := dic*1.05 + math.Mod(math.Abs(alkRaw), 0.3)
		tC := math.Mod(math.Abs(tRaw), 30)
		h, _ := SolveCarbonate(dic, alk, tC)
		k1, k2 := k1k2(tC)
		d := h*h + k1*h + k1*k2
		hco3 := dic * k1 * h / d
		co3 := dic * k1 * k2 / d
		return math.Abs(hco3+2*co3-alk) < 1e-6*alk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGasTransferWanninkhof(t *testing.T) {
	// Quadratic in wind speed.
	k5 := GasTransferVelocity(5)
	k10 := GasTransferVelocity(10)
	if math.Abs(k10/k5-4) > 1e-9 {
		t.Errorf("gas transfer not quadratic: %v", k10/k5)
	}
	if GasTransferVelocity(0) != 0 {
		t.Error("nonzero transfer at zero wind")
	}
}

// TestCarbonConservation: ecosystem + sinking + air-sea exchange preserve
// the invariant (inventory − cumulative uptake).
func TestCarbonConservation(t *testing.T) {
	oc, dyn, s := testSetup()
	sw, pco2, wind, ice := surfaceFields(oc)
	p := DefaultParams()
	// Stir the ocean a little so transport participates.
	for ei := range oc.Edges {
		oc.Ub[ei] = 0.03 * math.Sin(float64(ei))
	}
	f := ocean.NewForcing(oc.NOcean())
	c0 := s.ConservedCarbon()
	const dt = 1800
	for n := 0; n < 20; n++ {
		if err := dyn.Step(dt, f); err != nil {
			t.Fatal(err)
		}
		dyn.AdvectTracers(s.Tracers[:], dt)
		s.EcosystemKernel(dt, &p, sw)
		s.SinkingKernel(dt, &p)
		s.AirSeaFluxKernel(dt, pco2, wind, ice)
	}
	c1 := s.ConservedCarbon()
	if rel := math.Abs(c1-c0) / math.Abs(c0); rel > 1e-9 {
		t.Errorf("carbon invariant drift = %e", rel)
	}
}

// TestEcosystemGrowsPhytoplanktonInLight: sunny nutrient-rich surface
// water grows phytoplankton; dark water does not.
func TestEcosystemLightResponse(t *testing.T) {
	oc, _, s := testSetup()
	p := DefaultParams()
	sw := make([]float64, oc.NOcean())
	for i := range sw {
		sw[i] = 300
	}
	// Pick a tropical cell.
	best := 0
	for i := range oc.Cells {
		lat, _ := oc.G.CellCenter[oc.Cells[i]].LatLon()
		if math.Abs(lat) < 0.3 {
			best = i
			break
		}
	}
	phy0 := s.SurfacePhytoplankton(best)
	for n := 0; n < 48; n++ {
		s.EcosystemKernel(1800, &p, sw)
	}
	phyLight := s.SurfacePhytoplankton(best)
	if phyLight <= phy0 {
		t.Errorf("no growth in light: %v → %v", phy0, phyLight)
	}
	// Dark run: populations decline.
	_, _, s2 := testSetup()
	dark := make([]float64, oc.NOcean())
	for n := 0; n < 48; n++ {
		s2.EcosystemKernel(1800, &p, dark)
	}
	if s2.SurfacePhytoplankton(best) >= phy0 {
		t.Errorf("phytoplankton grew in darkness")
	}
}

// TestAirSeaFluxDirection: ocean with low pCO2 takes carbon up; with very
// high atmospheric pCO2 even more so; ice blocks exchange.
func TestAirSeaFluxDirection(t *testing.T) {
	oc, _, s := testSetup()
	_, pco2, wind, ice := surfaceFields(oc)
	dic0 := s.Tracers[TrDIC][0]
	s.AirSeaFluxKernel(600, pco2, wind, ice)
	fluxFree := s.LastCO2Flux[0]
	// Fully ice-covered: no exchange.
	for i := range ice {
		ice[i] = 1
	}
	s.Tracers[TrDIC][0] = dic0
	s.AirSeaFluxKernel(600, pco2, wind, ice)
	if s.LastCO2Flux[0] != 0 {
		t.Errorf("flux through full ice cover: %v", s.LastCO2Flux[0])
	}
	_ = fluxFree
	// Direction: raise atmospheric pCO2 far above ocean → influx.
	for i := range ice {
		ice[i] = 0
	}
	hot := make([]float64, len(pco2))
	for i := range hot {
		hot[i] = 2000
	}
	s.AirSeaFluxKernel(600, hot, wind, ice)
	if s.LastCO2Flux[0] <= 0 {
		t.Errorf("no uptake under 2000 µatm atmosphere: %v", s.LastCO2Flux[0])
	}
}

// TestSinkingMovesParticlesDown: detritus maxima deepen under sinking.
func TestSinkingMovesParticlesDown(t *testing.T) {
	oc, _, s := testSetup()
	p := DefaultParams()
	nlev := oc.NLev
	// Concentrate detritus at the surface of cell 0.
	for k := 0; k < nlev; k++ {
		s.Tracers[TrDet][0*nlev+k] = 0
	}
	s.Tracers[TrDet][0] = 1.0
	inv0 := oc.TracerInventory(s.Tracers[TrDet])
	for n := 0; n < 50; n++ {
		s.SinkingKernel(1800, &p)
	}
	if s.Tracers[TrDet][0] > 0.5 {
		t.Errorf("surface detritus did not sink: %v", s.Tracers[TrDet][0])
	}
	var below float64
	for k := 1; k < nlev; k++ {
		below += s.Tracers[TrDet][0*nlev+k]
	}
	if below <= 0 {
		t.Error("no detritus below the surface")
	}
	inv1 := oc.TracerInventory(s.Tracers[TrDet])
	if rel := math.Abs(inv1-inv0) / inv0; rel > 1e-9 {
		t.Errorf("sinking lost mass: %e", rel)
	}
}

func TestModelStepFusedAndConcurrent(t *testing.T) {
	oc, dyn, _ := testSetup()
	sw, pco2, wind, ice := surfaceFields(oc)
	cpuSpec := exec.DeviceSpec{Name: "cpu", MemBW: 450e9, HalfSatBytes: 4e6, PowerIdle: 60, PowerMax: 250}
	gpuSpec := exec.DeviceSpec{Name: "gpu", MemBW: 4e12, LaunchLatency: 4e-6, HalfSatBytes: 64e6, PowerIdle: 70, PowerMax: 560}

	fusedDev := exec.NewDevice(cpuSpec)
	fused := NewModel(oc, fusedDev)
	fused.Step(600, dyn, sw, pco2, wind, ice)
	if fusedDev.Launches() != 4 {
		t.Errorf("fused launches = %d, want 4", fusedDev.Launches())
	}

	concDev := exec.NewDevice(gpuSpec)
	conc := NewModel(oc, concDev)
	conc.Concurrent = true
	conc.Step(600, dyn, sw, pco2, wind, ice)
	if concDev.Launches() != 6 {
		t.Errorf("concurrent launches = %d, want 6 (incl. transfers)", concDev.Launches())
	}
	if conc.Steps() != 1 || fused.Steps() != 1 {
		t.Error("step counts")
	}
}

// TestModelStepBitIdenticalAcrossWorkers: a full Model.Step — the grouped
// transport sweep, ecosystem, sinking and air–sea exchange — behind a
// stirred ocean must leave every tracer byte-equal at pool widths 1, 2
// and 4.
func TestModelStepBitIdenticalAcrossWorkers(t *testing.T) {
	defer sched.SetWorkers(0)
	run := func(workers int) *State {
		sched.SetWorkers(workers)
		oc, dyn, _ := testSetup()
		sw, pco2, wind, ice := surfaceFields(oc)
		for ei := range oc.Edges {
			oc.Ub[ei] = 0.03 * math.Sin(float64(ei))
		}
		f := ocean.NewForcing(oc.NOcean())
		m := NewModel(oc, exec.NewDevice(exec.DeviceSpec{Name: "cpu", MemBW: 450e9, HalfSatBytes: 4e6}))
		for n := 0; n < 3; n++ {
			if err := dyn.Step(1800, f); err != nil {
				t.Fatal(err)
			}
			m.Step(1800, dyn, sw, pco2, wind, ice)
		}
		return m.State
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		for tr := range want.Tracers {
			for j, v := range want.Tracers[tr] {
				if math.Float64bits(got.Tracers[tr][j]) != math.Float64bits(v) {
					t.Fatalf("workers=%d: tracer %d differs at %d: %v vs %v", workers, tr, j, got.Tracers[tr][j], v)
				}
			}
		}
	}
}

// TestOxygenMinimumPersists: the initial oxygen minimum zone stays within
// physical bounds under the ecosystem.
func TestOxygenBounds(t *testing.T) {
	oc, _, s := testSetup()
	p := DefaultParams()
	sw, _, _, _ := surfaceFields(oc)
	for n := 0; n < 50; n++ {
		s.EcosystemKernel(1800, &p, sw)
	}
	for i, v := range s.Tracers[TrO2] {
		if v < 0 || v > 1 {
			t.Fatalf("O2[%d] = %v out of bounds", i, v)
		}
	}
}
