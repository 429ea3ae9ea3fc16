// Package coupler assembles the full Earth system and orchestrates the
// paper's heterogeneous component mapping (§5.1): the atmosphere and land
// run on the GPU device with the land coupled at every atmospheric
// timestep, while the ocean, sea ice and biogeochemistry run concurrently
// on the CPU device; energy, water and carbon are exchanged between the
// two sides at the coupling timestep (10 simulated minutes in the paper)
// through a YAC-like field exchange with lagged (previous-window) fields.
//
// Both sides really do run concurrently as goroutines, and each side's
// simulated-device clock advances independently; at every coupling window
// the earlier side waits, and the wait times are recorded exactly as the
// paper's §6.3 measures them ("included in timings is the coupling time,
// i.e. the amount of time atmosphere/land have to wait for
// ocean/sea-ice/biogeochemistry and vice versa").
package coupler

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"icoearth/internal/atmos"
	"icoearth/internal/bgc"
	"icoearth/internal/exec"
	"icoearth/internal/grid"
	"icoearth/internal/land"
	"icoearth/internal/machine"
	"icoearth/internal/ocean"
	"icoearth/internal/sched"
	"icoearth/internal/trace"
	"icoearth/internal/vertical"
)

// MolMassAir is the molar mass of dry air (kg/mol).
const MolMassAir = 0.02897

// Config selects the model configuration of a coupled run.
type Config struct {
	Res         grid.Resolution
	AtmLevels   int
	OceanLevels int
	AtmDt       float64
	OceanDt     float64
	CouplingDt  float64
	// BGCConcurrent runs the biogeochemistry on the GPU device instead of
	// fused with the ocean on the CPU (§5.1 HAMOCC discussion).
	BGCConcurrent bool
	// LandGraphs enables CUDA-Graph capture of the land kernel stream.
	LandGraphs bool
	// GrayRadiation replaces part of the Held-Suarez forcing with the
	// interactive gray radiation scheme (responds to the model's own
	// water vapour and CO2).
	GrayRadiation bool
	// Workers is the parallel width of the shared kernel worker pool
	// (internal/sched); 0 keeps the current setting (GOMAXPROCS by
	// default). Results are bit-identical at every width.
	Workers int
	// NoOverlap serialises the two sides of the coupling window on the
	// caller's goroutine (GPU side first, then CPU side) instead of
	// overlapping them. The zero value keeps the paper's functional
	// parallelism; the sequential path is the bit-identical reference the
	// overlap is verified against (see TestStepWindowOverlapBitIdentical).
	NoOverlap bool
}

// LaptopConfig is a configuration that runs comfortably in tests and
// examples: a coarse grid with shallow columns but every component active.
func LaptopConfig() Config {
	return Config{
		Res:         grid.R2B(2),
		AtmLevels:   10,
		OceanLevels: 8,
		AtmDt:       120,
		OceanDt:     600,
		CouplingDt:  600,
		LandGraphs:  true,
	}
}

// xchg is the coupler's double-buffered asynchronous exchange. Each
// buffered field exists twice: the front buffer (index gen&1) is what a
// side reads during the window — the previous window's lagged exchange —
// while the back buffer is written by the producing side's fold as the
// last act of its window, concurrently with the other side still
// stepping. Neither side can ever read a half-written flux because
// reads and writes land on different buffers by construction; the
// post-join flip (gen++) publishes the back buffer atomically with
// respect to the sides, which are joined at that point.
//
// gen counts completed exchanges and equals the window count; it is
// checkpointed so a rollback restores the very buffer parity the
// snapshot was taken at (see Snapshot/ApplySnapshot).
type xchg struct {
	gen int
	// force is the atmosphere→ocean window-mean forcing (GPU side folds
	// into back; ocean reads front).
	force [2]*ocean.Forcing
	// co2 is the ocean→atmosphere CO₂ payback flux, kg CO₂/m²/s per
	// compact ocean cell (CPU side folds into back; gpuStep reads front).
	co2 [2][]float64
	// sstK and open carry the ocean surface state for the atmosphere's
	// lower boundary condition: SST in kelvin and the open-water flag
	// (CPU side folds into back; the flip copies front into bc).
	sstK [2][]float64
	open [2][]bool
}

// fi and bi are the front (read) and back (write) buffer indices.
func (x *xchg) fi() int { return x.gen & 1 }
func (x *xchg) bi() int { return 1 - (x.gen & 1) }

// EarthSystem is the assembled coupled model.
type EarthSystem struct {
	Cfg  Config
	G    *grid.Grid
	Mask *grid.Mask

	Atm  *atmos.Model
	Land *land.Model
	Oc   *ocean.Model
	Bgc  *bgc.Model

	GPU *exec.Device
	CPU *exec.Device

	// Boundary state exchanged at coupling windows (lagged).
	bc        atmos.SurfaceBC
	x         xchg      // double-buffered asynchronous exchange slabs
	swDown    []float64 // analytic insolation proxy per global cell
	pco2Ocean []float64 // atmospheric pCO2 over ocean cells, µatm
	landCO2   []float64 // per global cell, land → atmosphere flux of current window
	sfcFlux   []float64 // per global cell, gpuStep's surface tracer flux scratch

	// Built once so that the steady-state window does not allocate them:
	// swDown on compact ocean indexing, and gpuStep's land forcing (every
	// field of it is rewritten each step).
	swOcean   []float64
	landForce *land.Forcing

	// Window accumulation of atmosphere fluxes (per global cell).
	accHeat, accFresh, accStress, accSpeed []float64
	accCount                               int

	// riverBuffer accumulates discharge (kg per window) per compact ocean
	// cell on the GPU side; it is folded into the ocean forcing at the
	// exchange, never touched while the CPU side is running.
	riverBuffer []float64
	// prevAirSea snapshots the BGC's cumulative air–sea exchange at the
	// last exchange, so the atmosphere pays back exactly what the ocean
	// absorbed during the window.
	prevAirSea []float64

	// Water/carbon accounting (see Conservation methods).
	oceanWaterAccount float64
	simTime           float64

	// Coupling wait diagnostics (simulated seconds).
	AtmWait, OceanWait float64
	windows            int

	// Run tracing (nil when disabled): the window track plus one track per
	// concurrent side, so the GPU and CPU goroutines never share a lane.
	tracer              *trace.Tracer
	tkWin, tkGPU, tkCPU *trace.Track

	// The overlapped window's CPU side (cpuWindow) reports through these.
	cpuErr  error
	cpuDone sync.WaitGroup
}

// New assembles an Earth system on the given devices (gpu for
// atmosphere+land, cpu for ocean+biogeochemistry).
func New(cfg Config, gpu, cpu *exec.Device) *EarthSystem {
	if cfg.Workers > 0 {
		sched.SetWorkers(cfg.Workers)
	}
	g := grid.New(cfg.Res)
	mask := grid.NewMask(g)
	vertA := vertical.NewAtmosphere(cfg.AtmLevels, 30000, 300)
	vertO := vertical.NewOcean(cfg.OceanLevels, 4000, 50)

	es := &EarthSystem{Cfg: cfg, G: g, Mask: mask, GPU: gpu, CPU: cpu}
	es.Atm = atmos.NewModel(g, vertA, gpu)
	if cfg.GrayRadiation {
		es.Atm.Rad = atmos.NewRadiation()
		// Radiation takes over the deep-atmosphere cooling; weaken the
		// Newtonian relaxation to the boundary layer role.
		es.Atm.Phys.HS.Ka /= 4
	}
	es.Land = land.NewModel(g, mask, gpu)
	es.Land.UseGraph = cfg.LandGraphs
	es.Oc = ocean.NewModel(g, mask, vertO, cfg.OceanDt, cpu)
	bgcDev := cpu
	if cfg.BGCConcurrent {
		// Concurrent HAMOCC runs on its own GPU resources (Linardakis et
		// al. 2022): a separate device clock, so its kernels overlap the
		// atmosphere's instead of serialising with them.
		bgcDev = exec.NewDevice(gpu.Spec)
		bgcDev.SetPowerCap(gpu.PowerCap())
	}
	es.Bgc = bgc.NewModel(es.Oc.State, bgcDev)
	if cfg.BGCConcurrent {
		es.Bgc.Concurrent = true
	}

	es.Atm.State.InitBaroclinic(288, 15)
	es.Atm.State.InitTracers()

	n := g.NCells
	nOc := es.Oc.State.NOcean()
	es.bc = atmos.SurfaceBC{Tsfc: make([]float64, n), IsWater: make([]bool, n)}
	for b := 0; b < 2; b++ {
		es.x.force[b] = ocean.NewForcing(nOc)
		es.x.co2[b] = make([]float64, nOc)
		es.x.sstK[b] = make([]float64, nOc)
		es.x.open[b] = make([]bool, nOc)
	}
	es.swDown = make([]float64, n)
	es.swOcean = make([]float64, nOc)
	es.landForce = land.NewForcing(es.Land.State.NLand())
	es.pco2Ocean = make([]float64, nOc)
	es.landCO2 = make([]float64, n)
	es.sfcFlux = make([]float64, n)
	es.accHeat = make([]float64, n)
	es.accFresh = make([]float64, n)
	es.accStress = make([]float64, n)
	es.accSpeed = make([]float64, n)
	es.riverBuffer = make([]float64, nOc)
	es.prevAirSea = make([]float64, nOc)

	for c := 0; c < n; c++ {
		lat, _ := g.CellCenter[c].LatLon()
		es.swDown[c] = math.Max(0, 340*math.Cos(lat)*math.Cos(lat))
	}
	for i, c := range es.Oc.State.Cells {
		es.swOcean[i] = es.swDown[c]
	}
	es.refreshSurfaceBC()
	es.updateAtmosPCO2()
	return es
}

// SetTracer attaches a run tracer to the coupled system: coupling windows,
// the concurrent GPU/CPU component steps, and the exchange are recorded,
// and both devices (plus a concurrent BGC device) get exec tracks. A nil
// tracer (the default) costs one branch per recording point. Must be set
// before stepping.
func (es *EarthSystem) SetTracer(tr *trace.Tracer) {
	es.tracer = tr
	es.tkWin = tr.Track("coupler", 0)
	es.tkGPU = tr.Track("coupler:gpu-side", 0)
	es.tkCPU = tr.Track("coupler:cpu-side", 0)
	es.GPU.AttachTrace(tr)
	es.CPU.AttachTrace(tr)
	if es.Bgc != nil && es.Bgc.Dev != es.CPU && es.Bgc.Dev != es.GPU {
		es.Bgc.Dev.AttachTrace(tr)
	}
}

// Tracer returns the attached tracer (nil when tracing is disabled).
func (es *EarthSystem) Tracer() *trace.Tracer { return es.tracer }

// NewOnSuperchip assembles the system with the paper's GH200 mapping and
// power partition: ocean+BGC on the Grace CPU, atmosphere+land on the
// Hopper GPU under the shared TDP.
func NewOnSuperchip(cfg Config, chip machine.Superchip, cpuDraw float64) *EarthSystem {
	gpu, cpu := chip.NewPair(cpuDraw)
	return New(cfg, gpu, cpu)
}

// refreshSurfaceBC rebuilds the atmosphere's lower boundary condition from
// the current land and ocean states.
func (es *EarthSystem) refreshSurfaceBC() {
	oc := es.Oc.State
	ld := es.Land.State
	for c := 0; c < es.G.NCells; c++ {
		if oi := oc.CellIndex[c]; oi >= 0 {
			// Ocean: SST in K; open water unless ice-covered.
			es.bc.Tsfc[c] = oc.SST(oi) + 273.15
			es.bc.IsWater[c] = oc.IceFrac[oi] < 0.5
		} else if li := ld.CellIndex[c]; li >= 0 {
			es.bc.Tsfc[c] = ld.SurfaceTemp(li)
			es.bc.IsWater[c] = false
		}
	}
}

// updateAtmosPCO2 computes the atmospheric CO₂ partial pressure over each
// ocean cell (µatm) from the lowest-level mixing ratio and pressure.
func (es *EarthSystem) updateAtmosPCO2() {
	s := es.Atm.State
	nlev := s.NLev
	for i, c := range es.Oc.State.Cells {
		idx := c*nlev + nlev - 1
		q := s.Tracers[atmos.TracerCO2][idx]
		p := atmos.Pressure(s.Exner[idx])
		// Mole fraction × pressure in µatm.
		es.pco2Ocean[i] = q * (MolMassAir / 0.044) * p / 101325 * 1e6
	}
}

// StepWindow advances the full Earth system by one coupling window,
// running the GPU side (atmosphere+land) and the CPU side (ocean+sea
// ice+BGC) concurrently — or sequentially under Config.NoOverlap, the
// bit-identical reference path — then flipping the double-buffered
// exchange. Each side folds its outgoing fields into the back exchange
// buffers as the last act of its window, so the fold work overlaps the
// other side; only the flip (buffer publication plus the small
// serial-by-nature couplings) remains in the post-join section.
func (es *EarthSystem) StepWindow() error {
	cfg := es.Cfg
	nAtm := int(math.Round(cfg.CouplingDt / cfg.AtmDt))

	tWin := es.tkWin.Start()
	defer es.tkWin.EndArg("window", tWin, "window", int64(es.windows))

	gpuStart := es.GPU.SimTime()
	cpuStart := es.CPU.SimTime()

	for c := range es.accHeat {
		es.accHeat[c], es.accFresh[c], es.accStress[c], es.accSpeed[c] = 0, 0, 0, 0
	}
	es.accCount = 0

	var gpuErr, ocErr error
	if cfg.NoOverlap {
		gpuErr = es.gpuSide(nAtm, cfg.AtmDt)
		ocErr = es.cpuSide(es.oceanSteps(), cfg.OceanDt)
	} else {
		es.cpuDone.Add(1)
		go es.cpuWindow()
		gpuErr = es.gpuSide(nAtm, cfg.AtmDt)
		es.cpuDone.Wait()
		ocErr = es.cpuErr
	}
	if gpuErr != nil || ocErr != nil {
		// The window is torn: one side may have stepped further than the
		// other and no exchange happened. The state is NOT safe to continue
		// from — callers must restore a checkpoint (see Supervisor).
		return errors.Join(gpuErr, ocErr)
	}

	// --- Coupling synchronisation: the faster device waits (§6.3). The
	// wait lands as a span on the waiting side's track, so a trace shows
	// at a glance which side idled and for how much simulated time — the
	// paper's atm_wait_frac → 0 story, per window.
	gpuT := es.GPU.SimTime() - gpuStart
	cpuT := es.CPU.SimTime() - cpuStart
	if gpuT < cpuT {
		t0 := es.tkGPU.Start()
		es.GPU.AdvanceIdle(cpuT - gpuT)
		es.AtmWait += cpuT - gpuT
		es.tkGPU.EndArg("atm_wait", t0, "sim_us", int64((cpuT-gpuT)*1e6))
	} else {
		t0 := es.tkCPU.Start()
		es.CPU.AdvanceIdle(gpuT - cpuT)
		es.OceanWait += gpuT - cpuT
		es.tkCPU.EndArg("ocean_wait", t0, "sim_us", int64((gpuT-cpuT)*1e6))
	}

	tEx := es.tkWin.Start()
	es.flip()
	es.tkWin.End("exchange", tEx)
	es.simTime += cfg.CouplingDt
	es.windows++
	return nil
}

// cpuWindow is the CPU side of an overlapped window, on a goroutine of its
// own while the GPU side runs on StepWindow's. Spawning it allocates the
// method value (16 bytes), the one allocation of a warmed-up window.
func (es *EarthSystem) cpuWindow() {
	defer es.cpuDone.Done()
	es.cpuErr = es.cpuSide(es.oceanSteps(), es.Cfg.OceanDt)
}

// oceanSteps is the number of ocean steps in a coupling window.
func (es *EarthSystem) oceanSteps() int {
	return max(1, int(math.Round(es.Cfg.CouplingDt/es.Cfg.OceanDt)))
}

// gpuSide runs the atmosphere+land window (land coupled every atmosphere
// step) and folds the accumulated atmosphere fluxes into the back ocean
// forcing. Panics (injected faults, NaN blowups surfacing as runtime
// errors) are converted to errors so the other side always stays
// joinable. Identical whether called on its own goroutine (overlap) or
// inline (sequential reference): it touches only GPU-side-owned state
// plus the back exchange buffers it exclusively produces.
func (es *EarthSystem) gpuSide(nAtm int, dt float64) (err error) {
	t0 := es.tkGPU.Start()
	defer es.tkGPU.EndArg("atm+land", t0, "steps", int64(nAtm))
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("coupler: atmosphere/land side failed: %v", p)
			es.tkGPU.Instant("side:panic")
		}
	}()
	for n := 0; n < nAtm; n++ {
		es.gpuStep(dt)
	}
	es.foldAtmToOcean()
	return nil
}

// cpuSide runs the ocean+sea ice+BGC window with lagged (front-buffer)
// forcing, then folds the ocean's outgoing fields — CO₂ payback, SST,
// open-water mask — into the back exchange buffers.
func (es *EarthSystem) cpuSide(nOc int, dt float64) (err error) {
	t0 := es.tkCPU.Start()
	defer es.tkCPU.EndArg("ocean+ice+bgc", t0, "steps", int64(nOc))
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("coupler: ocean/BGC side failed: %v", p)
			es.tkCPU.Instant("side:panic")
		}
	}()
	force := es.x.force[es.x.fi()]
	for n := 0; n < nOc; n++ {
		if e := es.Oc.Step(dt, force); e != nil {
			return fmt.Errorf("coupler: ocean failed: %w", e)
		}
		es.Bgc.Step(dt, es.Oc.Dyn, es.swOcean, es.pco2Ocean,
			force.WindSpeed, es.Oc.State.IceFrac)
	}
	es.foldOceanToAtm()
	return nil
}

// gpuStep performs one atmosphere step with per-step land coupling.
func (es *EarthSystem) gpuStep(dt float64) {
	g := es.G
	ld := es.Land.State
	oc := es.Oc.State

	// Apply the lagged (front-buffer) ocean→atmosphere CO₂ flux and the
	// land CO₂ flux of the previous land step.
	co2 := es.sfcFlux
	clear(co2)
	pending := es.x.co2[es.x.fi()]
	for i, c := range oc.Cells {
		co2[c] = pending[i]
	}
	for c, v := range es.landCO2 {
		co2[c] += v
	}
	es.Atm.Phys.ApplyTracerSurfaceFlux(atmos.TracerCO2, co2, dt)

	fl := es.Atm.Step(dt, es.bc)

	// Land forcing from this very step (per-timestep coupling).
	lf := es.landForce
	for i, c := range ld.Cells {
		lf.SWDown[i] = es.swDown[c]
		lf.TAir[i] = es.Atm.State.Theta[c*es.Atm.State.NLev+es.Atm.State.NLev-1] *
			es.Atm.State.Exner[c*es.Atm.State.NLev+es.Atm.State.NLev-1]
		lf.Precip[i] = fl.Precip[c]
		lf.SensibleHeat[i] = fl.SensibleHeat[c]
	}
	lfl, discharge := es.Land.Step(dt, lf)

	// Land → atmosphere: evapotranspiration enters the lowest level now.
	et := es.sfcFlux
	clear(et)
	for i, c := range ld.Cells {
		et[c] = lfl.Evapotranspiration[i]
	}
	es.Atm.Phys.ApplyTracerSurfaceFlux(atmos.TracerQV, et, dt)
	for i, c := range ld.Cells {
		es.landCO2[c] = lfl.CO2Flux[i]
	}
	// Refresh land surface temperatures in the boundary condition (land is
	// tightly coupled).
	for i, c := range ld.Cells {
		es.bc.Tsfc[c] = ld.SurfaceTemp(i)
	}

	// Accumulate atmosphere fluxes for the ocean window.
	for c := 0; c < g.NCells; c++ {
		es.accHeat[c] += fl.SensibleHeat[c]
		es.accFresh[c] += fl.Precip[c] - fl.Evaporation[c]
		es.accStress[c] += fl.WindStress[c]
		es.accSpeed[c] += fl.WindSpeed[c]
	}
	es.accCount++

	// Water accounting: precipitation over ocean and ocean evaporation move
	// water between the atmosphere and the (accounted) ocean reservoir.
	for _, c := range oc.Cells {
		es.oceanWaterAccount += (fl.Precip[c] - fl.Evaporation[c]) * dt * g.CellArea[c]
	}
	// River discharge reaches the ocean account the moment it leaves land;
	// the buffered mass enters the ocean's salinity forcing next window.
	// The float sums fold in a fixed order: the river mouths ascend in
	// global cell.
	for j, gc := range es.Land.Rivers.Mouths {
		kgps := discharge[j]
		es.oceanWaterAccount += kgps * dt
		if oi := oc.CellIndex[gc]; oi >= 0 {
			es.riverBuffer[oi] += kgps * dt
		}
	}
}

// foldAtmToOcean is the GPU side's half of the asynchronous exchange
// (YAC analogue): atmosphere window means and buffered river discharge
// become the ocean forcing of the next window, written into the back
// buffer while the CPU side may still be stepping against the front.
// Reads only GPU-side-owned accumulators; the radiative term needs the
// post-window SST (CPU-owned) and is added at the flip.
func (es *EarthSystem) foldAtmToOcean() {
	oc := es.Oc.State
	g := es.G
	inv := 1.0
	if es.accCount > 0 {
		inv = 1 / float64(es.accCount)
	}
	force := es.x.force[es.x.bi()]
	for i, c := range oc.Cells {
		force.HeatFlux[i] = es.accHeat[c] * inv
		force.Freshwater[i] = es.accFresh[c]*inv +
			es.riverBuffer[i]/(g.CellArea[c]*es.Cfg.CouplingDt)
		es.riverBuffer[i] = 0
		force.WindStress[i] = es.accStress[c] * inv
		force.WindSpeed[i] = es.accSpeed[c] * inv
	}
}

// foldOceanToAtm is the CPU side's half of the asynchronous exchange:
// the CO₂ the ocean actually absorbed over this window (from the
// cumulative air–sea record) is paid back by the atmosphere during the
// next window so carbon closes exactly, and the post-window surface
// state (SST, open water) is staged for the atmosphere's boundary
// condition. Everything read is CPU-side-owned; everything written is a
// back buffer.
func (es *EarthSystem) foldOceanToAtm() {
	oc := es.Oc.State
	b := es.x.bi()
	co2, sstK, open := es.x.co2[b], es.x.sstK[b], es.x.open[b]
	for i := range oc.Cells {
		delta := es.Bgc.State.CumAirSea[i] - es.prevAirSea[i] // mol C/m²
		es.prevAirSea[i] = es.Bgc.State.CumAirSea[i]
		co2[i] = -delta * bgc.MolMassCO2 / es.Cfg.CouplingDt
		sstK[i] = oc.SST(i) + 273.15
		open[i] = oc.IceFrac[i] < 0.5
	}
}

// flip publishes the back exchange buffers — both sides are joined, so
// this is the one serial section left of the old synchronous exchange.
// It adds the radiative balance (which couples post-window SST to the
// heat flux, an inherently cross-side term) into the fresh forcing,
// installs the staged ocean surface state into the atmosphere's boundary
// condition (land cells are refreshed every gpuStep), and recomputes the
// ocean-side pCO₂ from the post-window atmosphere.
func (es *EarthSystem) flip() {
	es.x.gen++
	f := es.x.fi()
	force, sstK, open := es.x.force[f], es.x.sstK[f], es.x.open[f]
	for i, c := range es.Oc.State.Cells {
		force.HeatFlux[i] += es.radiativeBalance(c)
		es.bc.Tsfc[c] = sstK[i]
		es.bc.IsWater[c] = open[i]
	}
	es.updateAtmosPCO2()
}

// radiativeBalance is the analytic net surface radiation proxy over ocean
// (the atmosphere has no radiation scheme; the Held–Suarez relaxation
// plays that role internally), tuned so the coupled SST neither runs away
// nor collapses in short experiments.
func (es *EarthSystem) radiativeBalance(c int) float64 {
	oi := es.Oc.State.CellIndex[c]
	if oi < 0 {
		return 0
	}
	sst := es.Oc.State.SST(oi)
	sw := es.swDown[c] * 0.93 // after albedo
	// Linearised longwave cooling around 15 °C.
	lw := 180 + 2.0*(sst-15)
	return sw - lw
}

// SimTime returns the simulated (model) time advanced so far in seconds.
func (es *EarthSystem) SimTime() float64 { return es.simTime }

// LandCO2Flux returns the current land→atmosphere CO₂ flux at global cell
// c (kg CO₂/m²/s, positive into the atmosphere; zero over the ocean).
func (es *EarthSystem) LandCO2Flux(c int) float64 { return es.landCO2[c] }

// ExchangeField is one named lagged exchange buffer of the coupler.
type ExchangeField struct {
	Name string
	Data []float64
}

// ExchangeState returns the coupler's lagged exchange buffers for
// checkpointing — restoring them makes a checkpoint-restart
// continuation bit-identical to an uninterrupted run. Only the FRONT
// buffers of the double-buffered exchange are returned: the back
// buffers are fully rewritten by both folds before the next flip, so
// they carry no state a restart needs — but the restore must resolve
// "front" at the snapshot's generation parity, which is why ApplySnapshot
// restores the scalar record (including the generation index) before the
// field copy. The fields come back in a fixed order so snapshot assembly
// and restore walk them deterministically (a map here would leak Go's
// randomized iteration order into the checkpoint pipeline).
func (es *EarthSystem) ExchangeState() []ExchangeField {
	f := es.x.fi()
	return []ExchangeField{
		{"coupler.pendingCO2", es.x.co2[f]},
		{"coupler.landCO2", es.landCO2},
		{"coupler.prevAirSea", es.prevAirSea},
		{"coupler.heatFlux", es.x.force[f].HeatFlux},
		{"coupler.freshwater", es.x.force[f].Freshwater},
		{"coupler.windStress", es.x.force[f].WindStress},
		{"coupler.windSpeed", es.x.force[f].WindSpeed},
	}
}

// ResyncBoundary rebuilds the atmosphere's boundary condition and the
// ocean-side pCO₂ from the current (e.g. freshly restored) component
// states. Call after importing a checkpoint.
func (es *EarthSystem) ResyncBoundary() {
	es.refreshSurfaceBC()
	es.updateAtmosPCO2()
}

// OceanCO2Flux returns the pending ocean→atmosphere CO₂ flux at compact
// ocean cell i (kg CO₂/m²/s, positive into the atmosphere — negative when
// the ocean is absorbing carbon).
func (es *EarthSystem) OceanCO2Flux(i int) float64 { return es.x.co2[es.x.fi()][i] }

// Windows returns the number of completed coupling windows.
func (es *EarthSystem) Windows() int { return es.windows }

// Tau returns the temporal compression achieved so far on the simulated
// machine: simulated seconds per (simulated) wall-clock second, using the
// slowest of the device clocks — exactly the paper's τ.
func (es *EarthSystem) Tau() float64 {
	wall := math.Max(es.GPU.SimTime(), es.CPU.SimTime())
	if es.Bgc.Dev != es.CPU && es.Bgc.Dev != es.GPU {
		wall = math.Max(wall, es.Bgc.Dev.SimTime())
	}
	if wall == 0 {
		return 0
	}
	return es.simTime / wall
}

// AtmWaitFrac returns the fraction of the atmosphere device's elapsed
// (simulated) wall-clock spent waiting for the ocean side at coupling
// windows — the paper's §6.3 "atm_wait_frac → 0" overlap metric. Zero
// before any stepping.
func (es *EarthSystem) AtmWaitFrac() float64 {
	wall := es.GPU.SimTime()
	if wall == 0 {
		return 0
	}
	return es.AtmWait / wall
}

// AtmosWaterMass returns vapour+cloud mass of the atmosphere (kg).
func (es *EarthSystem) AtmosWaterMass() float64 {
	return es.Atm.State.TracerMass(atmos.TracerQV) + es.Atm.State.TracerMass(atmos.TracerQC)
}

// TotalWater returns the conserved water sum: atmosphere + land + the
// accounted ocean reservoir (kg).
func (es *EarthSystem) TotalWater() float64 {
	return es.AtmosWaterMass() + es.Land.State.TotalWater() + es.oceanWaterAccount
}

// AtmosCarbonMass returns the carbon mass in atmospheric CO₂ (kg C).
func (es *EarthSystem) AtmosCarbonMass() float64 {
	return es.Atm.State.TracerMass(atmos.TracerCO2) * (12.0 / 44.0)
}

// TotalCarbon returns the conserved carbon sum (kg C): atmosphere + land
// pools + ocean inventory, corrected for the in-flight ocean flux that the
// atmosphere has not yet seen.
func (es *EarthSystem) TotalCarbon() float64 {
	total := es.AtmosCarbonMass() + es.Land.State.TotalCarbon()
	total += es.Bgc.State.CarbonInventory() * bgc.MolMassC
	// In-flight ocean→atmosphere: the ocean's DIC already holds the last
	// window's uptake while the atmosphere pays during the next window;
	// the pending (front-buffer) flux (positive into the atmosphere) times
	// the window cancels the double count.
	pending := es.x.co2[es.x.fi()]
	for i, c := range es.Oc.State.Cells {
		total += pending[i] * es.Cfg.CouplingDt * es.G.CellArea[c] * (12.0 / 44.0)
	}
	// In-flight land→atmosphere: the land recorded its NEE this step; the
	// atmosphere receives it on the next atmosphere step.
	for c, v := range es.landCO2 {
		total += v * es.Cfg.AtmDt * es.G.CellArea[c] * (12.0 / 44.0)
	}
	return total
}
