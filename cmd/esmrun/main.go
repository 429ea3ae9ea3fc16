// Command esmrun runs the coupled Earth system at laptop scale and prints
// throughput and conservation diagnostics, the everyday driver of the
// library:
//
//	esmrun -hours 6 -grid 2 -atmlev 10
//
// Plain, durable, chaos and N-rank runs all go through runSim (DESIGN.md §8.4).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"time"

	"icoearth"
	"icoearth/internal/coupler"
	"icoearth/internal/fault"
	"icoearth/internal/grid"
	"icoearth/internal/ocean"
	"icoearth/internal/par"
	"icoearth/internal/par/socket"
	"icoearth/internal/restart"
	"icoearth/internal/trace"
)

// Sentinel failure classes, each mapped to its own exit code so automation
// wrapped around esmrun (CI, schedulers, restart scripts) can tell "nothing
// to resume" from "resume data destroyed" from "the simulation itself died".
var (
	errResumeMissing = errors.New("esmrun: resume directory missing")
	errSimFault      = errors.New("esmrun: simulation fault unrecovered")
)

// Exit codes beyond the generic 1.
const (
	exitResumeMissing = 3 // -resume target absent, or no generation ever published
	exitAllCorrupt    = 4 // generations exist but every one failed validation
	exitSimFault      = 5 // a window failed (supervised: beyond all retries/degradations)
)

func exitCode(err error) int {
	switch {
	case errors.Is(err, errResumeMissing), errors.Is(err, restart.ErrNoCheckpoint):
		return exitResumeMissing
	case errors.Is(err, restart.ErrCorrupt):
		return exitAllCorrupt
	case errors.Is(err, errSimFault):
		return exitSimFault
	}
	return 1
}

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Print(err)
		os.Exit(exitCode(err))
	}
}

// runConfig is what every rank's runSim reads: the parsed flags, the chaos
// and kill specs already validated. Nothing writes it once run hands it out.
type runConfig struct {
	opts                          icoearth.Options
	hours                         float64
	transport, ckptDir, resume    string
	sums, ckpt, report, tracePath string
	chaos, supervised             bool
	seed                          uint64
	plan                          fault.Plan
	kill                          *fault.KillSpec
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("esmrun", flag.ContinueOnError)
	var rc runConfig
	o := &rc.opts
	fs.Float64Var(&rc.hours, "hours", 3, "simulated hours to run, rounded up to whole coupling windows")
	fs.IntVar(&o.GridLevel, "grid", 2, "icosahedral grid level (R2B<level>)")
	fs.IntVar(&o.AtmosphereLevels, "atmlev", 10, "atmosphere levels")
	fs.IntVar(&o.OceanLevels, "oclev", 8, "ocean levels")
	fs.Float64Var(&o.AtmosphereDt, "atmdt", 120, "atmosphere timestep (s)")
	fs.IntVar(&o.Workers, "workers", 0, "kernel worker-pool width (0 = GOMAXPROCS); results are bit-identical at every width")
	overlap := fs.Bool("overlap", true, "overlap the ocean+BGC window with the atmosphere window (results are bit-identical either way)")
	fs.StringVar(&rc.sums, "sums", "", "write exact (hex-float) conservation totals to this file for byte-for-byte determinism diffs")
	fs.BoolVar(&o.BGCConcurrent, "bgc-concurrent", false, "run biogeochemistry concurrently on its own GPU device")
	fs.BoolVar(&o.DisableLandGraphs, "no-graphs", false, "disable CUDA-Graph capture for land kernels")
	fs.StringVar(&rc.ckpt, "checkpoint", "", "publish the end state as one generation of a checkpoint store in this directory (-resume continues from it)")
	fs.StringVar(&rc.ckptDir, "ckpt-dir", "", "durable checkpoint store: run supervised, publishing a fsynced checkpoint generation every coupling window (overlapped with the next window); kill the process at any instant and -resume continues bit-identically")
	fs.StringVar(&rc.resume, "resume", "", "resume from the newest valid generation of a checkpoint store (-ckpt-dir or -checkpoint) and keep checkpointing into it")
	crashAt := fs.String("crash-at", "", "self-SIGKILL at a kill point (window=N or write=SITE[:N]) — crash-harness testing of the durable store")
	fs.StringVar(&rc.report, "report", "", "write the supervised run's RunReport as JSON to this file, even when the run fails (the failure is recorded in it); a chaos run adds seed, plan and injected")
	chaos := fs.String("chaos", "", "run under the fault-injecting supervisor: seed=N[,plan=crash@1:dycore;nan@2:atm.qv;...] (empty plan = auto)")
	fs.StringVar(&rc.tracePath, "trace", "", "record a run trace and write Chrome trace-event JSON to this file (open in chrome://tracing or ui.perfetto.dev)")
	ranks := fs.Int("ranks", 1, "number of ranks; each owns a contiguous SFC shard of the ocean for the distributed barotropic solve (results are bit-identical at every rank count)")
	fs.StringVar(&rc.transport, "transport", "inproc", "rank transport: inproc (goroutines + channels) or socket (one OS process per rank over unix sockets)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.NoOverlap = !*overlap
	rc.chaos = *chaos != ""
	rc.supervised = rc.chaos || rc.ckptDir != "" || rc.resume != ""
	switch {
	case *ranks < 1:
		return fmt.Errorf("esmrun: -ranks %d: need at least 1", *ranks)
	case rc.transport != "inproc" && rc.transport != "socket":
		return fmt.Errorf("esmrun: -transport %q: want inproc or socket", rc.transport)
	case (*ranks > 1 || rc.transport == "socket") && rc.supervised:
		return fmt.Errorf("esmrun: -chaos, -ckpt-dir and -resume need per-rank checkpoint stores, which multi-rank runs do not have yet")
	case rc.ckptDir != "" && rc.resume != "":
		return fmt.Errorf("esmrun: -resume continues checkpointing into its own store; drop -ckpt-dir")
	case *crashAt != "" && rc.ckptDir == "" && rc.resume == "":
		return fmt.Errorf("esmrun: -crash-at needs a durable run (-ckpt-dir or -resume)")
	case rc.report != "" && !rc.supervised:
		return fmt.Errorf("esmrun: -report writes a supervised run's RunReport; add -ckpt-dir, -resume or -chaos")
	}
	var err error
	if rc.chaos {
		if rc.seed, rc.plan, err = fault.ParseChaosSpec(*chaos); err != nil {
			return err
		}
	}
	if *crashAt != "" {
		rc.kill = new(fault.KillSpec)
		if *rc.kill, err = fault.ParseKillSpec(*crashAt); err != nil {
			return err
		}
	}
	if rc.resume != "" {
		// Stat before the supervisor opens the store: opening would create
		// the directory and turn "nothing to resume" into an empty store.
		if fi, err := os.Stat(rc.resume); err != nil || !fi.IsDir() {
			return fmt.Errorf("%w: %s", errResumeMissing, rc.resume)
		}
	}

	// The launchers: goroutine ranks over channels, or — over sockets —
	// this process as one rank child, or as the parent re-execing itself
	// once per rank (stdout and every file come from the rank-0 child).
	if rc.transport == "socket" {
		rank, n, ok := socket.ChildEnv()
		if !ok {
			return socket.Launch(*ranks, out, os.Stderr)
		}
		if n != *ranks {
			return fmt.Errorf("esmrun: rank %d launched for %d ranks but -ranks is %d", rank, n, *ranks)
		}
		tp, err := socket.FromEnv(10 * time.Second)
		if err != nil {
			return err
		}
		defer tp.Close()
		var simErr error
		runErr := par.RunTransport(tp, func(c *par.Comm) {
			c.SetDeadline(rankDeadline)
			simErr = runSim(c, &rc, out)
		})
		return errors.Join(simErr, runErr)
	}
	w := par.NewWorld(*ranks)
	w.SetDeadline(rankDeadline)
	errs := make([]error, *ranks)
	runErr := w.RunErr(func(c *par.Comm) { errs[c.Rank] = runSim(c, &rc, out) })
	return errors.Join(append(errs, runErr)...)
}

// rankDeadline bounds every blocking par operation in a multi-rank run so
// a wedged or dead peer surfaces as ErrRankLost instead of a hang.
const rankDeadline = 2 * time.Minute

// chaosInfo is what a chaos run adds to the RunReport's JSON.
type chaosInfo struct {
	Seed     uint64        `json:"seed"`
	Plan     string        `json:"plan"`
	Injected []fault.Event `json:"injected"`
	in       *fault.Injector
}

// runSim is the one run path, called by every rank of every mode. It
// builds the simulation (the barotropic solve distributed over c when
// there is more than one rank), resumes it if asked, and steps
// max(1, ⌈hours·3600/CouplingDt⌉) windows in six progress chunks —
// through a supervisor when -ckpt-dir, -resume or -chaos asks for one,
// plainly otherwise. The model state is replicated on every rank, so rank
// 0 alone writes the tail: summary, RunReport, trace, checkpoint, sums.
func runSim(c *par.Comm, rc *runConfig, out io.Writer) error {
	if c.Rank != 0 {
		out = io.Discard
	}
	sim, err := icoearth.NewSimulation(rc.opts)
	if err != nil {
		return err
	}
	es := sim.ES
	var db *ocean.DistBarotropic
	if c.Size() > 1 {
		if db, err = distribute(es, c); err != nil {
			return err
		}
	}
	var tr *trace.Tracer
	if rc.tracePath != "" && c.Rank == 0 {
		tr = trace.New()
		es.SetTracer(tr)
		restart.SetTrace(tr.Track("restart", 0))
		defer restart.SetTrace(nil)
	}
	total := max(1, int(math.Ceil(rc.hours*3600/es.Cfg.CouplingDt)))
	d0 := sim.Diagnostics()
	fmt.Fprintf(out, "icoearth coupled Earth system — grid R2B%d (%d cells), %d atm levels\n",
		rc.opts.GridLevel, es.G.NCells, rc.opts.AtmosphereLevels)
	fmt.Fprintf(out, "initial: water %.6g kg, carbon %.6g kg, CO2 %.0f ppm, SST %.1f °C\n",
		d0.TotalWaterKg, d0.TotalCarbonKg, d0.AtmosCO2PPM, d0.MeanSST)

	// One supervisor configuration; a chaos run differs only by the armed
	// injector, and by a throwaway store when no -ckpt-dir is given.
	mode := "plain"
	var sv *coupler.Supervisor
	var ci *chaosInfo
	if rc.supervised {
		mode = "durable"
		cfg := coupler.SuperviseConfig{Dir: rc.ckptDir, CheckpointEvery: 1, WindowDeadline: 30 * time.Second, Async: true}
		if rc.resume != "" {
			cfg.Dir = rc.resume
		}
		if rc.chaos {
			mode = "chaos"
			plan := rc.plan
			if len(plan) == 0 {
				plan = fault.AutoPlan(fault.NewRNG(rc.seed), total)
			}
			if cfg.Dir == "" {
				if cfg.Dir, err = os.MkdirTemp("", "esmrun-chaos-"); err != nil {
					return err
				}
				defer os.RemoveAll(cfg.Dir)
			}
			ci = &chaosInfo{Seed: rc.seed, Plan: plan.String(), in: fault.NewInjector(rc.seed, plan)}
			fault.Arm(ci.in, es, &cfg)
			fmt.Fprintf(out, "chaos: seed %d, %d windows, plan %s\n", rc.seed, total, plan)
		}
		if rc.kill != nil {
			rc.kill.Arm(&cfg)
		}
		if sv, err = coupler.NewSupervisor(es, cfg); err != nil {
			return err
		}
	}
	// The RunReport's fields at the top level, a chaos run's beside them.
	writeReport := func() error {
		if rc.report == "" {
			return nil
		}
		if ci != nil {
			ci.Injected = ci.in.Events()
		}
		blob, err := json.MarshalIndent(struct {
			*coupler.RunReport
			*chaosInfo
		}{sv.Report(), ci}, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "report: %s\n", rc.report)
		return os.WriteFile(rc.report, blob, 0o644)
	}

	if rc.resume != "" {
		snap, meta, rejected, err := sv.Store().LoadNewest()
		for _, r := range rejected {
			fmt.Fprintf(out, "resume: rejected generation %d: %s\n", r.Seq, r.Reason)
		}
		if err == nil {
			err = es.ApplySnapshot(snap)
		}
		if err != nil {
			err = fmt.Errorf("esmrun: resume from %s: %w", rc.resume, err)
			sv.Report().Failure = err.Error()
			return errors.Join(err, writeReport())
		}
		fmt.Fprintf(out, "resume: window %d restored from generation %d (%d windows to go)\n",
			meta.Window, meta.Seq, max(0, total-es.Windows()))
	}

	left := max(0, total-es.Windows())
	wall0 := time.Now()
	var runErr error
	for i := 0; i < 6 && runErr == nil; i++ {
		n := (i+1)*left/6 - i*left/6
		if sv != nil && n > 0 {
			_, runErr = sv.Run(n)
		}
		for k := 0; sv == nil && k < n && runErr == nil; k++ {
			runErr = es.StepWindow()
		}
		if n > 0 && runErr == nil {
			d := sim.Diagnostics()
			fmt.Fprintf(out, "t=%8s  τ(sim machine)=%7.1f  SST=%5.2f°C  ice=%.2e m²  CO2=%.1f ppm\n",
				d.SimTime.Truncate(time.Minute), d.Tau, d.MeanSST, d.SeaIceAreaM2, d.AtmosCO2PPM)
		}
	}
	if c.Rank != 0 {
		return runErr
	}

	d1 := sim.Diagnostics()
	fmt.Fprintf(out, "\nconservation: water drift %.2e, carbon drift %.2e\n",
		math.Abs(d1.TotalWaterKg/d0.TotalWaterKg-1), math.Abs(d1.TotalCarbonKg/d0.TotalCarbonKg-1))
	fmt.Fprintf(out, "coupling: atmosphere waited %.3fs, ocean waited %.3fs (simulated), atm_wait_frac %.4f\n",
		d1.AtmWaitSeconds, d1.OceanWaitSecs, d1.AtmWaitFrac)
	fmt.Fprintf(out, "energy (simulated): GPU %.3g J, CPU %.3g J\n", d1.GPUEnergyJ, d1.CPUEnergyJ)
	if ci != nil {
		for _, ev := range ci.in.Events() {
			fmt.Fprintf(out, "  injected @%d: %s\n", ev.Window, ev.Detail)
		}
	}
	if sv != nil {
		rep := sv.Report()
		for _, f := range rep.Faults {
			fmt.Fprintf(out, "  observed @%d [%s]: %s\n", f.Window, f.Kind, f.Detail)
		}
		for _, d := range rep.Degradations {
			fmt.Fprintf(out, "  degraded @%d [%s]: %s\n", d.Window, d.Kind, d.Detail)
		}
		fmt.Fprintf(out, "recovery: %d checkpoints (%.1f MiB, %.1f ms), %d rollbacks (%.1f ms), %d retries\n",
			rep.Checkpoints, float64(rep.CheckpointBytes)/(1<<20), float64(rep.CheckpointNs)/1e6,
			rep.Rollbacks, float64(rep.RollbackNs)/1e6, rep.Retries)
		if err := writeReport(); err != nil {
			return err
		}
	}
	if db != nil {
		lo, hi := db.CG.OwnedRange()
		fmt.Fprintf(out, "ranks: %d (%s), rank 0 owns wet cells [%d,%d): %d halo exchanges, %.3g MiB halo traffic, overlap frac %.2f\n",
			c.Size(), rc.transport, lo, hi, db.CG.HaloXchgs, float64(db.CG.HaloBytes)/(1<<20), db.CG.OverlapFrac())
	}
	if tr != nil {
		if err := tr.WriteFile(rc.tracePath); err != nil {
			return err
		}
		fmt.Fprintf(out, "\n%strace: %s (load in chrome://tracing)\n", tr.Summary(), rc.tracePath)
	}
	if runErr != nil {
		return fmt.Errorf("%w: %s run: %v", errSimFault, mode, runErr)
	}
	fmt.Fprintf(out, "%s run completed: %d windows, τ %.1f, wall %.1fs\n",
		mode, es.Windows(), sim.Tau(), time.Since(wall0).Seconds())
	if rc.ckpt != "" {
		st, err := restart.OpenStore(rc.ckpt, 2)
		if err != nil {
			return err
		}
		n, dir, err := st.Write(es.Snapshot(), es.Windows(), 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint: window %d, %.1f MiB in %s\n", es.Windows(), float64(n)/(1<<20), dir)
	}
	return writeSums(es, rc.sums)
}

// distribute installs the distributed barotropic solver over this rank's
// SFC-contiguous shard. Block-aligned cuts and a rank-ordered fold keep the
// -sums fingerprint byte-identical at every rank count, on either transport.
func distribute(es *coupler.EarthSystem, c *par.Comm) (*ocean.DistBarotropic, error) {
	cuts, err := ocean.AlignedCuts(es.Oc.State, c.Size())
	if err != nil {
		return nil, err
	}
	dec, err := grid.DecomposeAt(es.G, cuts)
	if err != nil {
		return nil, err
	}
	db, err := ocean.NewDistBarotropic(es.Oc.State, es.Oc.Dyn.Op.Dt, dec, c)
	if err != nil {
		return nil, err
	}
	es.Oc.Dyn.Solver = db
	return db, nil
}

// writeSums records the exact end-of-run state fingerprint — conserved
// totals and clock in hex floats (every bit printed), window count — for
// the CI determinism matrix: two runs are equivalent iff their sums files
// are byte-for-byte identical, whatever the workers, overlap, ranks or mode.
func writeSums(es *coupler.EarthSystem, path string) error {
	if path == "" {
		return nil
	}
	blob := fmt.Sprintf("total_water_kg %x\ntotal_carbon_kg %x\nsim_time_s %x\nwindows %d\n",
		es.TotalWater(), es.TotalCarbon(), es.SimTime(), es.Windows())
	return os.WriteFile(path, []byte(blob), 0o644)
}
