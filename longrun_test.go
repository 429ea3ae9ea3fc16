package icoearth

// Production-style integration tests: longer coupled runs with the full
// option set, guarded by -short. These are the "keep iterating past
// tests-green" battery: multi-hour coupled integrations with interactive
// radiation, dynamic vegetation, output streams, and a checkpoint-restart
// continuation equivalence check.

import (
	"math"
	"os"
	"testing"
	"time"

	"icoearth/internal/restart"
)

// TestProductionStyleDay runs 12 simulated hours of the full system with
// gray radiation and verifies stability, conservation, and that every
// component did real work.
func TestProductionStyleDay(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	sim, err := NewSimulation(Options{GrayRadiation: true})
	if err != nil {
		t.Fatal(err)
	}
	d0 := sim.Diagnostics()
	if err := sim.Run(12 * time.Hour); err != nil {
		t.Fatal(err)
	}
	d1 := sim.Diagnostics()

	if err := sim.ES.Atm.State.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	if err := sim.ES.Oc.State.CheckFinite(); err != nil {
		t.Fatal(err)
	}
	// The drift is logged so that "no worse" (DESIGN.md §17, condition 2)
	// is a comparison of numbers; EXPERIMENTS.md records them per PR.
	water := math.Abs(d1.TotalWaterKg-d0.TotalWaterKg) / d0.TotalWaterKg
	carbon := math.Abs(d1.TotalCarbonKg-d0.TotalCarbonKg) / d0.TotalCarbonKg
	t.Logf("12 h drift: water %.3e, carbon %.3e (relative)", water, carbon)
	if water > 1e-9 {
		t.Errorf("water drift over 12h = %e", water)
	}
	if carbon > 1e-6 {
		t.Errorf("carbon drift over 12h = %e", carbon)
	}
	if d1.MeanSST < -3 || d1.MeanSST > 35 {
		t.Errorf("mean SST = %v after 12h", d1.MeanSST)
	}
	// Radiation kernel actually ran.
	var sawRad bool
	for _, st := range sim.ES.GPU.Stats() {
		if st.Name == "radiation" && st.Count > 0 {
			sawRad = true
		}
	}
	if !sawRad {
		t.Error("radiation kernel never ran")
	}
	// Precipitation fell somewhere.
	var precip float64
	for _, p := range sim.ES.Atm.State.PrecipAccum {
		precip += p
	}
	if precip <= 0 {
		t.Error("no precipitation in 12 hours")
	}
}

// TestRestartContinuationEquivalence: running 4 windows straight equals
// running 2, checkpointing, restoring into a fresh simulation and running
// 2 more — bit-identical prognostics (the correctness property behind the
// paper's checkpoint/restart usage).
func TestRestartContinuationEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	opts := Options{}
	straight, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := straight.ES.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}

	first, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := first.ES.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := first.Checkpoint(dir, 3); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewSimulation(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := resumed.ES.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}

	// The snapshot includes the coupler's lagged exchange buffers, so the
	// continuation must be bit-identical to the uninterrupted run.
	for i := range straight.ES.Atm.State.Rho {
		if straight.ES.Atm.State.Rho[i] != resumed.ES.Atm.State.Rho[i] {
			t.Fatalf("atmosphere rho diverged at %d after restart", i)
		}
	}
	for i := range straight.ES.Oc.State.Temp {
		if straight.ES.Oc.State.Temp[i] != resumed.ES.Oc.State.Temp[i] {
			t.Fatalf("ocean temp diverged at %d after restart", i)
		}
	}
	for i := range straight.ES.Bgc.State.Tracers[0] {
		if straight.ES.Bgc.State.Tracers[0][i] != resumed.ES.Bgc.State.Tracers[0][i] {
			t.Fatalf("bgc tracer diverged at %d after restart", i)
		}
	}
	_ = math.Abs
}

// TestOutputStreamsDuringCoupledRun: the asynchronous reduced output
// pipeline runs alongside the coupled integration without blocking it.
func TestOutputStreamsDuringCoupledRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	sim, err := NewSimulation(Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sink := restart.NewAsyncOutput(dir, 2, 32)
	sstStream := restart.NewOutputStream("sst-mean", restart.OpMean, 3, sink)
	iceStream := restart.NewOutputStream("ice-max", restart.OpMax, 3, sink)
	oc := sim.ES.Oc.State
	sst := make([]float64, oc.NOcean())
	for w := 0; w < 9; w++ {
		if err := sim.ES.StepWindow(); err != nil {
			t.Fatal(err)
		}
		for i := range sst {
			sst[i] = oc.SST(i)
		}
		sstStream.Push(sst)
		iceStream.Push(oc.IceFrac)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sstStream.Emissions() != 3 || iceStream.Emissions() != 3 {
		t.Errorf("emissions: %d %d, want 3 each", sstStream.Emissions(), iceStream.Emissions())
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 6 {
		t.Errorf("output files = %d, want 6", len(files))
	}
}

// TestGrayRadiationChangesClimate: the interactive radiation produces a
// different (but stable) trajectory from pure Held–Suarez.
func TestGrayRadiationChangesClimate(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	run := func(rad bool) Diagnostics {
		sim, err := NewSimulation(Options{GrayRadiation: rad})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(3 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return sim.Diagnostics()
	}
	hs := run(false)
	gr := run(true)
	if hs.TotalWaterKg == gr.TotalWaterKg && hs.MeanSST == gr.MeanSST {
		t.Error("radiation option had no effect at all")
	}
	// Both closed their budgets (checked through each run's own drift in
	// other tests); here assert both stayed physical.
	for _, d := range []Diagnostics{hs, gr} {
		if d.MeanSST < -3 || d.MeanSST > 35 {
			t.Errorf("mean SST %v unphysical", d.MeanSST)
		}
	}
}
