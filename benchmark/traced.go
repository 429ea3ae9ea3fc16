package main

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"icoearth"
	"icoearth/internal/atmos"
	"icoearth/internal/bgc"
	"icoearth/internal/coupler"
	"icoearth/internal/ocean"
	"icoearth/internal/restart"
)

// launchMetric maps the name of a kernel launch to the per-layer metric
// its span time is charged to; land's 64 kernels fold into one figure.
var launchMetric = map[string]string{
	"dycore:diag":       "atmos.diag_ms_pw",
	"dycore:ekinh":      "atmos.ekinh_ms_pw",
	"dycore:tangential": "atmos.tangential_ms_pw",
	"dycore:vn_pred":    "atmos.vn_pred_ms_pw",
	"dycore:hflux":      "atmos.hflux_ms_pw",
	"dycore:vsolve":     "atmos.vsolve_ms_pw",
	"dycore:vn_corr":    "atmos.vn_corr_ms_pw",
	"dycore:damp":       "atmos.damp_ms_pw",
	"transport":         "atmos.transport_ms_pw",
	"physics":           "atmos.physics_ms_pw",
	"ocean:pressure":    "ocean.pressure_ms_pw",
	"ocean:momentum":    "ocean.momentum_ms_pw",
	"ocean:barotropic":  "ocean.barotropic_ms_pw",
	"ocean:advect":      "ocean.advect_ms_pw",
	"ocean:mixing":      "ocean.mixing_ms_pw",
	"ocean:seaice":      "ocean.seaice_ms_pw",
	"bgc:transport":     "bgc.transport_ms_pw",
	"bgc:ecosystem":     "bgc.ecosystem_ms_pw",
	"bgc:sinking":       "bgc.sinking_ms_pw",
	"bgc:airsea":        "bgc.airsea_ms_pw",
}

// runCoupledTraced is the --trace 1 run of a coupled workload. One system
// steps windows alternately with the recorder off and on, so the traced
// and untraced window times come from the same state, minute and cache
// and their ratio is the recorder's own cost; the isolation loops then
// time direct calls into each layer on the final state, and the
// single-threaded reference run closes the run.
func runCoupledTraced(b *bench, cfg runCfg, name string, opts icoearth.Options) {
	sz := cfg.sz
	cs := buildCoupled(b, opts, cfg)
	es := cs.es
	rec := newRecorder()
	host := newHostRef()
	ckpt := name == "ckpt_cycle"

	var st *restart.Store
	var ckptMsPW, supervisorMs float64
	if ckpt {
		ckptMsPW, supervisorMs = supervisedSegment(b, cs, cfg)
		var err error
		if st, err = restart.OpenStore(filepath.Join(cfg.tmp, "traced-store"), 2); err != nil {
			b.fail("opening the traced store: %v", err)
			return
		}
	}

	// The alternating loop. In ckpt_cycle the benchmark drives the
	// supervisor's sequence itself on the traced windows, with a span
	// around each call.
	var plainMs, tracedMs []float64
	steps0, allreduces0 := es.Oc.Steps(), es.Oc.CGAllreduces
	bytes0 := es.GPU.BytesMoved() + es.CPU.BytesMoved()
	budget := 0.5 * sz.seconds
	start := time.Now()
	for pair := 0; pair < sz.minOps || time.Since(start).Seconds() < budget; pair++ {
		detach(es)
		t0 := time.Now()
		err := es.StepWindow()
		plainMs = append(plainMs, ms(time.Since(t0)))
		b.op("window", err)
		cs.noteFP()

		rec.attach(es)
		root := -1
		if ckpt {
			root = rec.begin("supervised_window", -1, pair)
		}
		d, err := rec.stepWindow(es, root, pair)
		tracedMs = append(tracedMs, ms(d))
		b.op("traced window", err)
		if ckpt {
			rec.around("healthcheck", root, pair, func() { cs.health(b, "in the traced pass") })
			var snap *restart.Snapshot
			rec.around("snapshot", root, pair, func() { snap = es.Snapshot() })
			rec.around("restart:store_write", root, pair, func() {
				_, _, err := st.Write(snap, es.Windows(), 3)
				b.op("checkpoint", err)
			})
			rec.end(root)
		}
		cs.noteFP()
		host.sample()
	}
	detach(es)
	loopSpans := len(rec.spans)
	nTraced := float64(len(tracedMs))
	nWindows := float64(len(tracedMs) + len(plainMs))

	if ckpt {
		b.set("restore_ms_p50", median(resumeCycles(b, es, rec, st.Root(), sz.isoReps)))
		b.set("ckpt_ms_per_window", ckptMsPW)
		b.set("coupler.supervisor_overhead_ms_pw", supervisorMs)
	}

	// Per-window figures from the recorded spans.
	dur, count := rec.totals()
	var atmosT, landT time.Duration
	var atmosN, landN, launches int
	for _, n := range slices.Sorted(maps.Keys(count)) {
		if metric, ok := launchMetric[n]; ok {
			b.set(metric, ms(dur[n])/nTraced)
		}
		switch layerOf(n) {
		case "atmos":
			atmosT, atmosN = atmosT+dur[n], atmosN+count[n]
		case "land":
			landT, landN = landT+dur[n], landN+count[n]
		case "coupler", "restart":
			continue
		}
		launches += count[n]
	}
	var gpu, cpu, critical, glue float64
	for _, w := range rec.windows {
		side := max(w.sides[0], w.sides[1])
		gpu += ms(w.sides[0])
		cpu += ms(w.sides[1])
		critical += float64(side) / float64(w.window)
		glue += ms(w.window - side)
	}
	atmSteps := float64(int(es.Cfg.CouplingDt/es.Cfg.AtmDt + 0.5))
	ocSteps := float64(es.Oc.Steps()-steps0) / nWindows
	a, o := es.Atm.State, es.Oc.State
	b.set("coupler.gpu_side_ms_pw", gpu/nTraced)
	b.set("coupler.cpu_side_ms_pw", cpu/nTraced)
	b.set("coupler.critical_side_frac", critical/nTraced)
	b.set("coupler.glue_ms_pw", glue/nTraced)
	b.set("atmos.cell_level_updates_per_s", float64(es.G.NCells*a.NLev)*atmSteps*nTraced/atmosT.Seconds())
	b.set("atmos.modelled_gb_pw", es.Atm.BytesPerStep()*atmSteps/1e9)
	b.set("atmos.launches_pw", float64(atmosN)/nTraced)
	b.set("land.step_ms_pw", ms(landT)/nTraced)
	b.set("land.kernels_per_step", float64(landN)/nTraced/atmSteps)
	b.set("land.ns_per_kernel", float64(landT.Nanoseconds())/float64(landN))
	allreduces := float64(es.Oc.CGAllreduces - allreduces0)
	b.set("ocean.cg_allreduces_pw", allreduces/nWindows)
	b.set("ocean.cg_iters_per_solve", (allreduces/(ocSteps*nWindows)-2)/2)
	tracerCells := float64(bgc.NumTracers * o.NOcean() * o.NLev)
	b.set("bgc.tracer_cell_updates_per_s", tracerCells*ocSteps*nTraced/dur["bgc:transport"].Seconds())
	b.set("bgc.transport_modelled_gb_pw", 2*tracerCells*8*ocSteps/1e9)
	b.set("exec.launches_pw", float64(launches)/nTraced)
	b.set("exec.modelled_bytes_pw", (es.GPU.BytesMoved()+es.CPU.BytesMoved()-bytes0)/nWindows)
	b.set("exec.sim_tau", es.Tau())
	b.set("exec.sim_atm_wait_frac", es.AtmWaitFrac())
	b.set("trace.overhead_frac", median(tracedMs)/median(plainMs)-1)
	b.set("trace.spans_pw", float64(loopSpans)/nTraced)
	b.set("trace.host_slowdown_x", host.slowdown())

	isolateCoupler(b, cs, sz)
	if ckpt {
		isolateRestart(b, cs, cfg, st)
	}
	cs.health(b, "after the traced pass")
	fmt.Fprintf(cfg.out, "%s: %d traced + %d untraced windows; fingerprint at window %d: %s\n",
		name, len(tracedMs), len(plainMs), cs.fpWindow, cs.fp)
	rec.writeSelfTable(cfg.out)
	if cfg.traceOut != "" {
		if err := rec.writeChrome(cfg.traceOut); err != nil {
			b.fail("writing the trace: %v", err)
		}
	}

	isolateKernels(b, es, sz)
	isolateComponents(b, es, sz)
	serialMs := serialReference(b, opts, cfg, cs.fp)
	b.set("sched.parallel_speedup_x", median(serialMs)/median(plainMs))
}

// resumeCycles runs n resume cycles on the store at root, a span around
// the load and around the restore, and returns their times. The newest
// generation holds the state the system stands on, so a restore must
// change nothing.
func resumeCycles(b *bench, es *coupler.EarthSystem, rec *recorder, root string, n int) []float64 {
	var restoreMs []float64
	for i := 0; i < n; i++ {
		id := rec.begin("resume", -1, i)
		var snap *restart.Snapshot
		var meta restart.GenMeta
		var err error
		rec.around("restart:load_newest", id, i, func() {
			var st *restart.Store
			if st, err = restart.OpenStore(root, 2); err == nil {
				snap, meta, _, err = st.LoadNewest()
			}
		})
		if err == nil {
			rec.around("apply_snapshot", id, i, func() { err = es.ApplySnapshot(snap) })
		}
		rec.end(id)
		restoreMs = append(restoreMs, ms(rec.spans[id].dur()))
		b.op("restore", err)
		if err == nil {
			checkRestored(b, es, meta)
		}
	}
	return restoreMs
}

// newSupervisor opens the real supervisor on the system with a durable
// checkpoint before every window.
func newSupervisor(cs *coupledSim, cfg runCfg, async bool) (*coupler.Supervisor, error) {
	return coupler.NewSupervisor(cs.es, coupler.SuperviseConfig{
		Dir: filepath.Join(cfg.tmp, fmt.Sprintf("supervised-async-%v", async)), NFiles: 3, CheckpointEvery: 1,
		Async: async, WaterDriftTol: driftTol, CarbonDriftTol: driftTol,
		Hooks: coupler.SuperviseHooks{BeforeWindow: func(int) { cs.noteFP() }}})
}

// checkReport counts the operations of a supervised run of the given
// number of windows and fails it on an error, a retry or a rollback.
func checkReport(b *bench, windows int, rep *coupler.RunReport, err error) bool {
	b.attempted += windows + rep.Checkpoints
	if err != nil || rep.Rollbacks != 0 || rep.Retries != 0 {
		b.fail("supervised run: err=%v rollbacks=%d retries=%d", err, rep.Rollbacks, rep.Retries)
		return false
	}
	return true
}

// supervisedSegment runs minOps windows under the supervisor with
// synchronous checkpoints, alternating every supervised window with a
// bare StepWindow so the two are compared minute for minute. It returns
// the checkpoint cost per supervised window as the supervisor reports it,
// and the supervisor's own overhead: the median over the pairs of
// supervised window − its checkpoint − the bare window beside it.
func supervisedSegment(b *bench, cs *coupledSim, cfg runCfg) (ckptMsPW, overheadMs float64) {
	sv, err := newSupervisor(cs, cfg, false)
	if err != nil {
		b.fail("opening the supervisor: %v", err)
		return 0, 0
	}
	var overhead []float64
	var ckptNs, ckptBytes int64
	for i := 0; i < cfg.sz.minOps; i++ {
		t0 := time.Now()
		rep, err := sv.Run(1) // the report accumulates over calls
		supervised := ms(time.Since(t0))
		if err != nil {
			checkReport(b, i+1, rep, err)
			return 0, 0
		}
		t0 = time.Now()
		err = cs.es.StepWindow()
		bare := ms(time.Since(t0))
		b.op("window", err)
		cs.noteFP()
		overhead = append(overhead, supervised-float64(rep.CheckpointNs-ckptNs)/1e6-bare)
		ckptNs, ckptBytes = rep.CheckpointNs, rep.CheckpointBytes
	}
	if !checkReport(b, cfg.sz.minOps, sv.Report(), nil) {
		return 0, 0
	}
	n := float64(cfg.sz.minOps)
	b.set("ckpt_bytes_per_window", float64(ckptBytes)/n)
	return float64(ckptNs) / 1e6 / n, median(overhead)
}

// asyncUnhidden runs minOps windows under the supervisor with
// asynchronous checkpoints and returns the checkpoint time per window the
// overlap failed to hide (join of the previous write, clone, dispatch).
func asyncUnhidden(b *bench, cs *coupledSim, cfg runCfg) float64 {
	sv, err := newSupervisor(cs, cfg, true)
	if err != nil {
		b.fail("opening the async supervisor: %v", err)
		return 0
	}
	rep, err := sv.Run(cfg.sz.minOps)
	if !checkReport(b, cfg.sz.minOps, rep, err) {
		return 0
	}
	return float64(rep.CheckpointNs) / 1e6 / float64(rep.Windows)
}

// isolateCoupler times the coupler's own calls on the current state; none
// of them changes it.
func isolateCoupler(b *bench, cs *coupledSim, sz sizes) {
	es := cs.es
	b.set("coupler.healthcheck_ms", median(msEach(sz.isoReps, func() { cs.health(b, "in isolation") })))
	b.set("coupler.snapshot_ms", median(msEach(sz.isoReps, func() { es.Snapshot() })))
	clone := es.Snapshot().Clone()
	b.set("coupler.apply_snapshot_ms", median(msEach(sz.isoReps, func() {
		if err := es.ApplySnapshot(clone); err != nil {
			b.fail("ApplySnapshot in isolation: %v", err)
		}
	})))
}

// isolateRestart times the restart layer's calls on the current state.
func isolateRestart(b *bench, cs *coupledSim, cfg runCfg, st *restart.Store) {
	es, sz := cs.es, cfg.sz
	snap := es.Snapshot()
	var bytes int64
	writeMs := median(msEach(sz.isoReps, func() {
		n, _, err := st.Write(snap, es.Windows(), 3)
		if err != nil {
			b.fail("Store.Write in isolation: %v", err)
		}
		bytes = n
	}))
	b.set("restart.write_ms_p50", writeMs)
	b.set("restart.bytes_per_gen", float64(bytes))
	b.set("restart.write_mb_per_s", float64(bytes)/1e6/(writeMs/1e3))
	b.set("restart.load_ms_p50", median(msEach(sz.isoReps, func() {
		if _, _, _, err := st.LoadNewest(); err != nil {
			b.fail("LoadNewest in isolation: %v", err)
		}
	})))
	b.set("restart.checksum_ms", median(msEach(sz.isoReps, func() { snap.Checksum() })))
	b.set("restart.clone_ms", median(msEach(sz.isoReps, func() { snap.Clone() })))
	legacy := filepath.Join(cfg.tmp, "legacy")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		b.fail("creating %s: %v", legacy, err)
	}
	b.set("restart.legacy_multifile_write_ms", median(msEach(sz.isoReps, func() {
		if _, err := restart.WriteMultiFile(snap, legacy, 3); err != nil {
			b.fail("WriteMultiFile in isolation: %v", err)
		}
	})))
	b.set("restart.async_unhidden_ms_pw", asyncUnhidden(b, cs, cfg))
}

// isolateComponents times one whole step of each component, called
// directly with constant forcing. The steps change the state, so they run
// after the traced pass has been checked.
func isolateComponents(b *bench, es *coupler.EarthSystem, sz sizes) {
	cfg := es.Cfg
	fill := func(n int, v float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = v
		}
		return x
	}
	bc := atmos.SurfaceBC{Tsfc: fill(es.G.NCells, 288), IsWater: make([]bool, es.G.NCells)}
	b.set("atmos.step_ms", median(msEach(sz.isoReps, func() { es.Atm.Step(cfg.AtmDt, bc) })))

	lf := landForcing(es)
	b.set("land.step_ms", median(msEach(sz.isoReps, func() { es.Land.Step(cfg.AtmDt, lf) })))

	nOc := es.Oc.State.NOcean()
	of := ocean.NewForcing(nOc)
	b.set("ocean.step_ms", median(msEach(sz.isoReps, func() {
		if err := es.Oc.Step(cfg.OceanDt, of); err != nil {
			b.fail("ocean step in isolation: %v", err)
		}
	})))
	sw, pco2, wind := fill(nOc, 200), fill(nOc, 400), fill(nOc, 5)
	b.set("bgc.step_ms", median(msEach(sz.isoReps, func() {
		es.Bgc.Step(cfg.OceanDt, es.Oc.Dyn, sw, pco2, wind, es.Oc.State.IceFrac)
	})))
}
