// Package icoearth is a Go reproduction of "Computing the Full Earth
// System at 1km Resolution" (Klocke et al., SC '25): a coupled Earth
// system model — atmosphere, land with dynamic vegetation, ocean, sea ice
// and ocean biogeochemistry — on an icosahedral-triangular C-grid, together
// with the paper's performance machinery: the heterogeneous GPU/CPU
// component mapping with a shared power budget, CUDA-Graph-style kernel
// capture, a DaCe-style dataflow compiler for dycore kernels, multi-file
// checkpoint/restart, and a calibrated scaling model that regenerates
// every table and figure of the paper's evaluation.
//
// The package is the public facade: it assembles the coupled system at a
// laptop-scale resolution with every component active, runs it, and
// exposes throughput (τ), conservation diagnostics, and checkpointing.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
//
// Quickstart:
//
//	sim, err := icoearth.NewSimulation(icoearth.Options{})
//	if err != nil { ... }
//	if err := sim.Run(6 * time.Hour); err != nil { ... }
//	fmt.Printf("τ = %.0f simulated days per day\n", sim.Tau())
package icoearth

import (
	"fmt"
	"time"

	"icoearth/internal/atmos"
	"icoearth/internal/coupler"
	"icoearth/internal/grid"
	"icoearth/internal/machine"
	"icoearth/internal/restart"
)

// Options selects the simulation configuration.
type Options struct {
	// GridLevel is the icosahedral bisection level (R2B<level>); 0 means
	// the default laptop-scale grid (R2B2, ≈1280 cells, ≈630 km spacing).
	GridLevel int
	// AtmosphereLevels and OceanLevels are vertical resolutions (defaults
	// 10 and 8; the paper uses 90 and 72).
	AtmosphereLevels int
	OceanLevels      int
	// AtmosphereDt, OceanDt, CouplingDt in seconds (defaults 120/600/600;
	// the paper's 1.25 km run uses 10/60/600).
	AtmosphereDt float64
	OceanDt      float64
	CouplingDt   float64
	// BGCConcurrent runs the biogeochemistry concurrently on its own GPU
	// device instead of fused with the ocean on the CPU.
	BGCConcurrent bool
	// DisableLandGraphs turns off CUDA-Graph capture for the land kernels
	// (for ablation experiments).
	DisableLandGraphs bool
	// GrayRadiation enables the interactive gray radiation scheme in the
	// atmosphere (responds to the model's own H2O and CO2) instead of pure
	// Held-Suarez relaxation.
	GrayRadiation bool
	// Workers sets the parallel width of the shared kernel worker pool
	// (0 = GOMAXPROCS). Results are bit-identical at every width.
	Workers int
	// NoOverlap serialises the ocean+BGC window after the atmosphere
	// window instead of overlapping them (the paper's functional
	// parallelism, on by default). Results are bit-identical either way;
	// the sequential path exists as the verification reference and for
	// ablation timings.
	NoOverlap bool
	// CPUPowerDraw is the Grace-CPU share of the superchip's TDP (watts,
	// default 150) — the §5.1.1 power-partition knob.
	CPUPowerDraw float64
	// TDP is the superchip's shared power budget (default: JUPITER's 680).
	TDP float64
}

func (o *Options) fill() {
	if o.GridLevel == 0 {
		o.GridLevel = 2
	}
	if o.AtmosphereLevels == 0 {
		o.AtmosphereLevels = 10
	}
	if o.OceanLevels == 0 {
		o.OceanLevels = 8
	}
	if o.AtmosphereDt == 0 {
		o.AtmosphereDt = 120
	}
	if o.OceanDt == 0 {
		o.OceanDt = 600
	}
	if o.CouplingDt == 0 {
		o.CouplingDt = 600
	}
	if o.CPUPowerDraw == 0 {
		o.CPUPowerDraw = 150
	}
	if o.TDP == 0 {
		o.TDP = 680
	}
}

// Simulation is a running coupled Earth system.
type Simulation struct {
	ES *coupler.EarthSystem // the assembled system (full access for experts)
}

// NewSimulation assembles the coupled Earth system on a simulated GH200
// superchip with the paper's component mapping: atmosphere + land on the
// GPU device, ocean + sea ice (+ biogeochemistry unless BGCConcurrent) on
// the CPU device.
func NewSimulation(opts Options) (*Simulation, error) {
	opts.fill()
	if opts.GridLevel < 1 || opts.GridLevel > 6 {
		return nil, fmt.Errorf("icoearth: grid level %d out of supported range 1..6", opts.GridLevel)
	}
	cfg := coupler.Config{
		Res:           grid.R2B(opts.GridLevel),
		AtmLevels:     opts.AtmosphereLevels,
		OceanLevels:   opts.OceanLevels,
		AtmDt:         opts.AtmosphereDt,
		OceanDt:       opts.OceanDt,
		CouplingDt:    opts.CouplingDt,
		BGCConcurrent: opts.BGCConcurrent,
		LandGraphs:    !opts.DisableLandGraphs,
		GrayRadiation: opts.GrayRadiation,
		Workers:       opts.Workers,
		NoOverlap:     opts.NoOverlap,
	}
	es := coupler.NewOnSuperchip(cfg, machine.GH200(opts.TDP), opts.CPUPowerDraw)
	return &Simulation{ES: es}, nil
}

// Run advances the simulation by the given simulated duration (rounded up
// to whole coupling windows).
func (s *Simulation) Run(simulated time.Duration) error {
	target := s.ES.SimTime() + simulated.Seconds()
	for s.ES.SimTime() < target {
		if err := s.ES.StepWindow(); err != nil {
			return err
		}
	}
	return nil
}

// SimTime returns the simulated model time advanced so far.
func (s *Simulation) SimTime() time.Duration {
	return time.Duration(s.ES.SimTime() * float64(time.Second))
}

// Tau returns the temporal compression (simulated time per wall-clock time
// on the simulated superchip) achieved so far.
func (s *Simulation) Tau() float64 { return s.ES.Tau() }

// Diagnostics summarises the conserved quantities and headline state.
type Diagnostics struct {
	SimTime        time.Duration
	Tau            float64
	TotalWaterKg   float64
	TotalCarbonKg  float64
	AtmosCO2PPM    float64 // mean mixing ratio expressed in µmol/mol
	MeanSST        float64 // °C
	SeaIceAreaM2   float64
	AtmWaitSeconds float64 // coupling wait of the GPU side (§6.3)
	OceanWaitSecs  float64
	AtmWaitFrac    float64 // AtmWaitSeconds over the GPU device's elapsed time
	GPUEnergyJ     float64
	CPUEnergyJ     float64
}

// Diagnostics computes the current diagnostic summary.
func (s *Simulation) Diagnostics() Diagnostics {
	es := s.ES
	oc := es.Oc.State
	var sst, area float64
	for i, c := range oc.Cells {
		a := es.G.CellArea[c]
		sst += oc.SST(i) * a
		area += a
	}
	// Mean CO2 mole fraction from mass mixing ratio.
	var q, n float64
	for _, v := range es.Atm.State.Tracers[atmos.TracerCO2] {
		q += v
		n++
	}
	meanQ := q / n
	return Diagnostics{
		SimTime:        s.SimTime(),
		Tau:            s.Tau(),
		TotalWaterKg:   es.TotalWater(),
		TotalCarbonKg:  es.TotalCarbon(),
		AtmosCO2PPM:    meanQ * (coupler.MolMassAir / 0.044) * 1e6,
		MeanSST:        sst / area,
		SeaIceAreaM2:   oc.IceArea(),
		AtmWaitSeconds: es.AtmWait,
		OceanWaitSecs:  es.OceanWait,
		AtmWaitFrac:    es.AtmWaitFrac(),
		GPUEnergyJ:     es.GPU.Energy(),
		CPUEnergyJ:     es.CPU.Energy(),
	}
}

// Checkpoint writes the full model state as a multi-file restart into dir
// using nfiles writer files, returning the bytes written.
func (s *Simulation) Checkpoint(dir string, nfiles int) (int64, error) {
	return restart.WriteMultiFile(s.ES.Snapshot(), dir, nfiles)
}

// Restore loads a checkpoint written by Checkpoint into this simulation
// (which must have been built with identical Options).
func (s *Simulation) Restore(dir string) error {
	snap, err := restart.ReadMultiFile(dir)
	if err != nil {
		return err
	}
	return s.ES.ApplySnapshot(snap)
}
