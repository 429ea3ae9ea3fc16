package land

import (
	"math"
	"slices"
	"testing"

	"icoearth/internal/exec"
	"icoearth/internal/grid"
)

// succeed runs the dynamic-vegetation process of the land step on every
// land cell, relaxing the cover with weight w (min(1, dt/succession time)).
func succeed(s *State, w float64) {
	for i := range s.Cells {
		s.dynamicVegetation(i, w)
	}
}

func TestDynamicVegetationConservesCover(t *testing.T) {
	s := testLand()
	// Seed fitness randomly.
	for i := range s.NPPAvg {
		s.NPPAvg[i] = 1e-8 * float64((i*7)%13)
	}
	before := make([]float64, s.NLand())
	for i := range before {
		before[i] = s.CoverFraction(i)
	}
	for n := 0; n < 50; n++ {
		succeed(s, 86400/(30*86400.0))
	}
	for i := range before {
		if math.Abs(s.CoverFraction(i)-before[i]) > 1e-12 {
			t.Fatalf("cell %d: vegetated fraction drifted %v → %v", i, before[i], s.CoverFraction(i))
		}
		for p := 0; p < NumPFT; p++ {
			if cv := s.Cover[i*NumPFT+p]; cv < 0 || cv > 1 {
				t.Fatalf("cover out of range: %v", cv)
			}
		}
	}
}

func TestDynamicVegetationCompetitiveExclusion(t *testing.T) {
	s := testLand()
	// Pick a vegetated cell and make PFT 3 by far the most productive.
	i := -1
	for j := range s.Cells {
		if s.CoverFraction(j) > 0.3 {
			i = j
			break
		}
	}
	if i < 0 {
		t.Skip("no vegetated cell")
	}
	for p := 0; p < NumPFT; p++ {
		s.NPPAvg[i*NumPFT+p] = 1e-10
	}
	s.NPPAvg[i*NumPFT+3] = 1e-7
	total := s.CoverFraction(i)
	for n := 0; n < 400; n++ {
		succeed(s, 86400/(30*86400.0))
	}
	if s.DominantPFT(i) != 3 {
		t.Errorf("dominant PFT = %d, want 3", s.DominantPFT(i))
	}
	if s.Cover[i*NumPFT+3] < 0.8*total {
		t.Errorf("winner holds %v of %v after succession", s.Cover[i*NumPFT+3], total)
	}
}

// TestDynamicVegetationCarbonNeutral: cover shifts move no carbon — the
// conservation invariant still closes over land steps whose succession
// is shortened to ten days, so that the cover moves within the test.
func TestDynamicVegetationCarbonNeutral(t *testing.T) {
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
	cover0 := slices.Clone(s.Cover)
	const dt = 3600
	m.Step(dt, f) // builds the tables of dt
	m.tab.succession = dt / (10 * 86400.0)
	for n := 1; n < 40; n++ {
		m.Step(dt, f)
	}
	i1 := invariant()
	if rel := math.Abs(i1-i0) / math.Abs(i0); rel > 1e-10 {
		t.Errorf("carbon invariant drift with dynveg = %e", rel)
	}
	if slices.Equal(s.Cover, cover0) {
		t.Error("the cover did not move")
	}
}

func TestDynamicVegetationNoFitnessNoChange(t *testing.T) {
	s := testLand()
	before := make([]float64, len(s.Cover))
	copy(before, s.Cover)
	// All NPPAvg zero: not even a full relaxation step moves anything.
	succeed(s, 1)
	for i := range before {
		if s.Cover[i] != before[i] {
			t.Fatalf("cover changed without fitness signal at %d", i)
		}
	}
}

func TestModelLaunchesDynveg(t *testing.T) {
	g := grid.New(grid.R2B(2))
	mask := grid.NewMask(g)
	dev := newTestDevice()
	m := NewModel(g, mask, dev)
	f := testForcing(m.State)
	m.Step(1800, f)
	found := false
	for _, st := range dev.Stats() {
		if st.Name == "land:dynveg" {
			found = true
		}
	}
	if !found {
		t.Error("dynveg kernel not launched")
	}
	if m.KernelsPerStep() != 9+5*NumPFT {
		t.Errorf("kernels per step = %d", m.KernelsPerStep())
	}
}

// newTestDevice builds a small GPU-like device for kernel-stream tests.
func newTestDevice() *exec.Device {
	return exec.NewDevice(exec.DeviceSpec{Name: "gpu", MemBW: 1e12, LaunchLatency: 1e-6, HalfSatBytes: 1e6, PowerIdle: 10, PowerMax: 100})
}
