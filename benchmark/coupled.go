package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"icoearth"
	"icoearth/internal/coupler"
	"icoearth/internal/restart"
	"icoearth/internal/sched"
)

// driftTol is the relative conservation-drift tolerance of every health
// check in the benchmark (water and carbon); the drift itself lives at
// 1e-14..1e-16, so it is a check, not a metric.
const driftTol = 1e-9

// coupledOptions is the configuration of a coupled workload. README.md
// records why each one exists.
func coupledOptions(name string, sz sizes) icoearth.Options {
	o := icoearth.Options{GridLevel: sz.coupledLevel, Workers: workers()}
	switch name {
	case "atm_bound": // atmosphere+land ≈ 9/10 of the serial work
		o.AtmosphereLevels, o.OceanLevels, o.OceanDt = 20, 8, 600
	case "ocean_bound": // 5 ocean+BGC substeps per window: ocean+ice+BGC ≈ 3/4
		o.AtmosphereLevels, o.OceanLevels, o.OceanDt = 6, 12, 120
	case "ckpt_cycle": // the default 10/8-level model under the supervisor
	}
	return o
}

// coupledSim is one assembled, seeded and warmed-up coupled system.
type coupledSim struct {
	es                  *coupler.EarthSystem
	refWater, refCarbon float64
	// fp is the state fingerprint at absolute window count fpWindow, the
	// point at which the single-threaded reference run is compared.
	fpWindow int
	fp       string
}

// buildCoupled is the set-up of a coupled workload: assemble the system,
// apply the seeded perturbation, run the warm-up windows (land graph
// capture, worker-pool spin-up, lazily sized scratch).
func buildCoupled(b *bench, opts icoearth.Options, cfg runCfg) *coupledSim {
	sim, err := icoearth.NewSimulation(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	es := sim.ES
	perturbAtmosphere(es, cfg.seed)
	cs := &coupledSim{es: es, refWater: es.TotalWater(), refCarbon: es.TotalCarbon(),
		fpWindow: cfg.sz.warmup + cfg.sz.serialOps}
	for i := 0; i < cfg.sz.warmup; i++ {
		b.op("warm-up window", es.StepWindow())
	}
	return cs
}

// stateSum is the checksum of the whole checkpointed state except the
// coupler's two wait accumulators (scalars 3 and 4 of "coupler.scalars").
// Those integrate differences of the device clocks, which a rollback does
// not rewind, so the repository exempts them from bit-identity; every
// prognostic field and every other scalar is covered.
func stateSum(es *coupler.EarthSystem) uint64 {
	snap := es.Snapshot()
	sc := snap.Fields["coupler.scalars"] // a fresh slice per Snapshot call
	sc[3], sc[4] = 0, 0
	return snap.Checksum()
}

// fingerprint is the -sums recipe of cmd/esmrun plus the state checksum:
// two runs are equivalent iff these strings are equal.
func fingerprint(es *coupler.EarthSystem) string {
	return fmt.Sprintf("%016x %x %x %d", stateSum(es), es.TotalWater(), es.TotalCarbon(), es.Windows())
}

// noteFP records the fingerprint when the system stands at fpWindow.
func (cs *coupledSim) noteFP() {
	if cs.fp == "" && cs.es.Windows() == cs.fpWindow {
		cs.fp = fingerprint(cs.es)
	}
}

func (cs *coupledSim) health(b *bench, where string) {
	if err := cs.es.HealthCheck(cs.refWater, cs.refCarbon, driftTol, driftTol); err != nil {
		b.fail("health check %s: %v", where, err)
	}
}

// timed is what the measured loop of a --trace 0 run produces. Times are
// booked through charge, which scales them to the undisturbed host (see
// hostRef); the raw measurements are kept for the text report.
type timed struct {
	host     *hostRef
	windowMs []float64 // one sample per window
	rawMs    []float64 // the same windows as measured
	wallS    float64   // wall time of every timed operation
	simS     float64   // simulated seconds advanced, net of rollbacks
	alloc    allocMeter
}

func newTimed(host *hostRef) *timed {
	return &timed{host: host, windowMs: make([]float64, 0, 4096), rawMs: make([]float64, 0, 4096)}
}

// charge books one timed operation that has just ended; window says
// whether it is a window sample. It samples the host, which allocates, so
// callers pause the allocation meter around it.
func (t *timed) charge(d time.Duration, window bool) {
	scaled := ms(d) * t.host.scale()
	t.wallS += scaled / 1e3
	if window {
		t.windowMs = append(t.windowMs, scaled)
		t.rawMs = append(t.rawMs, ms(d))
	}
}

// emit sets the end-to-end metrics every workload shares.
func (t *timed) emit(b *bench, cfg runCfg, name string) {
	n := float64(len(t.windowMs))
	b.set("tau_sdpd", t.simS/t.wallS)
	b.set("window_ms_p50", median(t.windowMs))
	b.set("window_ms_p90", percentile(t.windowMs, 0.9))
	b.set("allocs_per_window", float64(t.alloc.mallocs)/n)
	b.set("alloc_kb_per_window", float64(t.alloc.bytes)/1024/n)
	b.set("peak_rss_mb", peakRSSMiB())
	fmt.Fprintf(cfg.out, "%s: %d windows timed, %.0f simulated s; as measured: window p50 %.3f ms, p90 %.3f ms at a median host slowdown of %.3f\n",
		name, len(t.windowMs), t.simS, median(t.rawMs), percentile(t.rawMs, 0.9), t.host.slowdown())
}

// runCoupled runs one of the three coupled workloads.
func runCoupled(b *bench, cfg runCfg, name string) {
	opts := coupledOptions(name, cfg.sz)
	if cfg.trace {
		runCoupledTraced(b, cfg, name, opts)
		return
	}
	// Set-up, several times over: setup_s is the median, and every set-up
	// from the same seed must land on the same state.
	host := newHostRef()
	var main *coupledSim
	var setupS []float64
	var fp0 string
	for i := 0; i < cfg.sz.setups; i++ {
		host.sample()
		t0 := time.Now()
		cs := buildCoupled(b, opts, cfg)
		setupS = append(setupS, time.Since(t0).Seconds()*host.scale())
		fp := fingerprint(cs.es)
		if i == 0 {
			main, fp0 = cs, fp
			continue
		}
		if fp != fp0 {
			b.fail("set-up %d landed on fingerprint %s, set-up 0 on %s", i, fp, fp0)
		}
		cs = nil
		runtime.GC() // a discarded set-up must not count towards peak_rss_mb
	}
	b.set("setup_s", median(setupS))

	t := newTimed(host)
	if name == "ckpt_cycle" {
		ckptCycleLoop(b, main, cfg, t)
	} else {
		windowLoop(b, main, cfg, t)
	}
	main.health(b, "after the timed pass")
	t.emit(b, cfg, name)
	fmt.Fprintf(cfg.out, "%s: fingerprint at window %d: %s\n", name, main.fpWindow, main.fp)
	serialReference(b, opts, cfg, main.fp)
}

// windowLoop is the closed loop of the stepping workloads: one client,
// the next coupling window issued when the previous one returns.
func windowLoop(b *bench, cs *coupledSim, cfg runCfg, t *timed) {
	es, sz := cs.es, cfg.sz
	minOps := max(sz.minOps, sz.serialOps)
	sim0 := es.SimTime()
	runtime.GC()
	t.host.sample()
	t.alloc.resume()
	start := time.Now()
	for n := 0; n < minOps || time.Since(start).Seconds() < sz.seconds; n++ {
		t0 := time.Now()
		err := es.StepWindow()
		d := time.Since(t0)
		t.alloc.pause()
		b.op("window", err)
		t.charge(d, true)
		cs.noteFP()
		t.alloc.resume()
	}
	t.alloc.pause()
	t.simS = es.SimTime() - sim0
}

// ckptCycleLoop is the closed loop of ckpt_cycle, the life of a run that
// is killed and resumed again and again: a fresh supervisor (as a resumed
// process builds one) runs two windows, each preceded by a synchronous
// durable checkpoint and followed by the health check; then the run
// "dies" and resumes from the store — OpenStore, LoadNewest,
// ApplySnapshot — which rolls back the last window, so the next cycle
// replays it. Write path and read path are both on the critical path of
// τ; a window sample is one supervised window (checkpoint + step + health
// check, from the supervisor's BeforeWindow hook).
func ckptCycleLoop(b *bench, cs *coupledSim, cfg runCfg, t *timed) {
	es, sz := cs.es, cfg.sz
	dir := filepath.Join(cfg.tmp, "store")

	// The BeforeWindow hook closes the previous window's sample and opens
	// the next; the benchmark's own checks run between the two stamps, with
	// the allocation meter paused.
	var winStart time.Time
	closeWindow := func(now time.Time) {
		if !winStart.IsZero() {
			t.charge(now.Sub(winStart), true)
			winStart = time.Time{}
		}
	}
	// replaySum is the state checksum the replayed window must reproduce
	// when the system stands at window replayAt again.
	var replaySum uint64
	replayAt := -1
	hooks := coupler.SuperviseHooks{BeforeWindow: func(w int) {
		now := time.Now()
		t.alloc.pause()
		closeWindow(now)
		cs.noteFP()
		if w == replayAt {
			if sum := stateSum(es); sum != replaySum {
				b.fail("replayed window %d landed on checksum %016x, the first pass on %016x", w-1, sum, replaySum)
			}
			replayAt = -1
		}
		t.alloc.resume()
		winStart = time.Now()
	}}
	svCfg := coupler.SuperviseConfig{Dir: dir, NFiles: 3, CheckpointEvery: 1,
		WaterDriftTol: driftTol, CarbonDriftTol: driftTol, Hooks: hooks}

	sim0 := es.SimTime()
	runtime.GC()
	t.host.sample()
	t.alloc.resume()
	start := time.Now()
	for n := 0; n < max(sz.minOps, sz.serialOps) || time.Since(start).Seconds() < sz.seconds; n++ {
		t0 := time.Now()
		sv, err := coupler.NewSupervisor(es, svCfg)
		d := time.Since(t0)
		t.alloc.pause()
		t.charge(d, false)
		t.alloc.resume()
		if err != nil {
			b.fail("opening the supervisor: %v", err)
			break
		}
		rep, err := sv.Run(2)
		now := time.Now()
		t.alloc.pause()
		closeWindow(now)
		b.attempted += rep.Windows + rep.Checkpoints
		if err != nil || rep.Rollbacks != 0 || rep.Retries != 0 {
			b.fail("supervised cycle %d: err=%v rollbacks=%d retries=%d", n, err, rep.Rollbacks, rep.Retries)
		}
		endSum, endWindow := stateSum(es), es.Windows()
		t.host.sample()
		t.alloc.resume()

		t0 = time.Now()
		meta, err := resume(es, dir)
		d = time.Since(t0)
		t.alloc.pause()
		t.charge(d, false)
		b.op("restore", err)
		if err == nil {
			checkRestored(b, es, meta)
			replaySum, replayAt = endSum, endWindow
		}
		t.alloc.resume()
	}
	t.alloc.pause()
	t.simS = es.SimTime() - sim0
}

// resume is the read path of a resumed run, as cmd/esmrun -resume drives
// it: open the store, load the newest generation that validates, restore.
func resume(es *coupler.EarthSystem, dir string) (restart.GenMeta, error) {
	st, err := restart.OpenStore(dir, 2)
	if err != nil {
		return restart.GenMeta{}, err
	}
	snap, meta, rejected, err := st.LoadNewest()
	if err != nil {
		return meta, err
	}
	if len(rejected) != 0 {
		return meta, fmt.Errorf("store rejected %d generations, first: %s", len(rejected), rejected[0].Reason)
	}
	return meta, es.ApplySnapshot(snap)
}

// checkRestored verifies that the restored state is the checkpointed one.
func checkRestored(b *bench, es *coupler.EarthSystem, meta restart.GenMeta) {
	if sum := es.Snapshot().Checksum(); sum != meta.Sum {
		b.fail("restored state has checksum %016x, the manifest of generation %d says %016x", sum, meta.Seq, meta.Sum)
	}
}

// serialReference is the plain single-threaded run of the same problem: a
// fresh system from the same seed at Workers 1 with the two sides
// serialised must stand on the measured run's fingerprint at the same
// window count. It runs last because the worker count is process-global.
// It returns its window times.
func serialReference(b *bench, opts icoearth.Options, cfg runCfg, want string) []float64 {
	opts.Workers, opts.NoOverlap = 1, true
	cs := buildCoupled(b, opts, cfg)
	var windowMs []float64
	for i := 0; i < cfg.sz.serialOps; i++ {
		t0 := time.Now()
		err := cs.es.StepWindow()
		windowMs = append(windowMs, ms(time.Since(t0)))
		b.op("serial window", err)
	}
	cs.noteFP()
	if want == "" || cs.fp != want {
		b.fail("single-threaded run stands on %q at window %d, the measured run on %q", cs.fp, cs.fpWindow, want)
	}
	cs.health(b, "after the single-threaded run")
	sched.SetWorkers(workers())
	return windowMs
}
