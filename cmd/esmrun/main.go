// Command esmrun runs the coupled Earth system at laptop scale and prints
// throughput and conservation diagnostics, the everyday driver of the
// library:
//
//	esmrun -hours 6 -grid 2 -atmlev 10
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
	exitSimFault      = 5 // supervised run failed beyond all retries/degradations
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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("esmrun", flag.ContinueOnError)
	var (
		hours   = fs.Float64("hours", 3, "simulated hours to run")
		gridLev = fs.Int("grid", 2, "icosahedral grid level (R2B<level>)")
		atmLev  = fs.Int("atmlev", 10, "atmosphere levels")
		ocLev   = fs.Int("oclev", 8, "ocean levels")
		atmDt   = fs.Float64("atmdt", 120, "atmosphere timestep (s)")
		workers = fs.Int("workers", 0, "kernel worker-pool width (0 = GOMAXPROCS); results are bit-identical at every width")
		overlap = fs.Bool("overlap", true, "overlap the ocean+BGC window with the atmosphere window (results are bit-identical either way)")
		sums    = fs.String("sums", "", "write exact (hex-float) conservation totals to this file for byte-for-byte determinism diffs")
		bgcConc = fs.Bool("bgc-concurrent", false, "run biogeochemistry concurrently on its own GPU device")
		noGraph = fs.Bool("no-graphs", false, "disable CUDA-Graph capture for land kernels")
		ckpt    = fs.String("checkpoint", "", "directory to write a restart at the end")
		ckptDir = fs.String("ckpt-dir", "",
			"durable checkpoint store: run supervised, publishing a fsynced checkpoint generation every coupling window (overlapped with the next window); kill the process at any instant and -resume continues bit-identically")
		resume = fs.String("resume", "",
			"resume from the newest valid generation of a durable checkpoint store (written with -ckpt-dir) and keep checkpointing into it")
		crashAt = fs.String("crash-at", "",
			"self-SIGKILL at a kill point (window=N or write=SITE[:N]) — crash-harness testing of the durable store")
		report = fs.String("report", "",
			"write the supervised RunReport as JSON to this file (written even when the run fails; the failure is recorded in it)")
		chaos = fs.String("chaos", "",
			"run under the fault-injecting supervisor: seed=N[,plan=crash@1:dycore;nan@2:atm.qv;...] (empty plan = auto)")
		chaosReport = fs.String("chaos-report", "", "write the chaos RunReport as JSON to this file")
		traceOut    = fs.String("trace", "",
			"record a run trace and write Chrome trace-event JSON to this file (open in chrome://tracing or ui.perfetto.dev)")
		ranks     = fs.Int("ranks", 1, "number of ranks; each owns a contiguous SFC shard of the ocean for the distributed barotropic solve (results are bit-identical at every rank count)")
		transport = fs.String("transport", "inproc", "rank transport: inproc (goroutines + channels) or socket (one OS process per rank over unix sockets)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ranks < 1 {
		return fmt.Errorf("esmrun: -ranks %d: need at least 1", *ranks)
	}
	if *transport != "inproc" && *transport != "socket" {
		return fmt.Errorf("esmrun: -transport %q: want inproc or socket", *transport)
	}
	opts := icoearth.Options{
		GridLevel:         *gridLev,
		AtmosphereLevels:  *atmLev,
		OceanLevels:       *ocLev,
		AtmosphereDt:      *atmDt,
		BGCConcurrent:     *bgcConc,
		DisableLandGraphs: *noGraph,
		Workers:           *workers,
		NoOverlap:         !*overlap,
	}
	if *ranks > 1 || *transport == "socket" {
		if *chaos != "" || *ckptDir != "" || *resume != "" || *crashAt != "" ||
			*traceOut != "" || *ckpt != "" || *report != "" || *chaosReport != "" {
			return fmt.Errorf("esmrun: multi-rank runs drive the plain stepping loop only; drop -chaos/-ckpt-dir/-resume/-crash-at/-trace/-checkpoint/-report/-chaos-report")
		}
		return runRanks(opts, *ranks, *transport, *hours, *gridLev, *atmLev, *sums, out)
	}
	if *chaos != "" && (*ckptDir != "" || *resume != "") {
		return fmt.Errorf("esmrun: -chaos already supervises with its own checkpoint dir (-checkpoint); it cannot combine with -ckpt-dir/-resume")
	}
	if *ckptDir != "" && *resume != "" {
		return fmt.Errorf("esmrun: -resume continues checkpointing into its own store; drop -ckpt-dir")
	}
	if *crashAt != "" && *ckptDir == "" && *resume == "" {
		return fmt.Errorf("esmrun: -crash-at needs a durable run (-ckpt-dir or -resume)")
	}

	sim, err := icoearth.NewSimulation(opts)
	if err != nil {
		return err
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New()
		sim.ES.SetTracer(tr)
		restart.SetTrace(tr.Track("restart", 0))
	}

	if *chaos != "" {
		if err := runChaos(sim, *chaos, *chaosReport, *hours, *ckpt, tr, *traceOut, out); err != nil {
			return err
		}
		return writeSums(sim, *sums)
	}
	if *ckptDir != "" || *resume != "" {
		if err := runDurable(sim, *ckptDir, *resume, *crashAt, *report, *hours, tr, *traceOut, out); err != nil {
			return err
		}
		return writeSums(sim, *sums)
	}

	if err := runSteps(sim, *hours, *gridLev, *atmLev, out); err != nil {
		return err
	}

	if *ckpt != "" {
		if err := os.MkdirAll(*ckpt, 0o755); err != nil {
			return err
		}
		n, err := sim.Checkpoint(*ckpt, 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint: %.1f MiB in %s\n", float64(n)/(1<<20), *ckpt)
	}
	if err := writeSums(sim, *sums); err != nil {
		return err
	}
	return writeTrace(tr, *traceOut, out)
}

// runSteps drives the plain (unsupervised) stepping loop: six equal
// chunks of simulated time with a diagnostics line after each, then the
// conservation and energy summary. Shared by the single-process path and
// every rank of a multi-rank run.
func runSteps(sim *icoearth.Simulation, hours float64, gridLev, atmLev int, out io.Writer) error {
	d0 := sim.Diagnostics()
	fmt.Fprintf(out, "icoearth coupled Earth system — grid R2B%d (%d cells), %d atm levels\n",
		gridLev, sim.ES.G.NCells, atmLev)
	fmt.Fprintf(out, "initial: water %.6g kg, carbon %.6g kg, CO2 %.0f ppm, SST %.1f °C\n",
		d0.TotalWaterKg, d0.TotalCarbonKg, d0.AtmosCO2PPM, d0.MeanSST)

	wall0 := time.Now()
	step := time.Duration(hours/6*float64(time.Hour)) + time.Second
	for i := 0; i < 6; i++ {
		if err := sim.Run(step); err != nil {
			return err
		}
		d := sim.Diagnostics()
		fmt.Fprintf(out, "t=%8s  τ(sim machine)=%7.1f  SST=%5.2f°C  ice=%.2e m²  CO2=%.1f ppm\n",
			d.SimTime.Truncate(time.Minute), d.Tau, d.MeanSST, d.SeaIceAreaM2, d.AtmosCO2PPM)
	}

	d1 := sim.Diagnostics()
	fmt.Fprintf(out, "\nconservation: water drift %.2e, carbon drift %.2e\n",
		rel(d1.TotalWaterKg, d0.TotalWaterKg), rel(d1.TotalCarbonKg, d0.TotalCarbonKg))
	fmt.Fprintf(out, "coupling: atmosphere waited %.3fs, ocean waited %.3fs (simulated), atm_wait_frac %.4f\n",
		d1.AtmWaitSeconds, d1.OceanWaitSecs, d1.AtmWaitFrac)
	fmt.Fprintf(out, "energy (simulated): GPU %.3g J, CPU %.3g J; wall clock %.1fs\n",
		d1.GPUEnergyJ, d1.CPUEnergyJ, time.Since(wall0).Seconds())
	return nil
}

// rankDeadline bounds every blocking par operation in a multi-rank run so
// a wedged or dead peer surfaces as ErrRankLost instead of a hang.
const rankDeadline = 2 * time.Minute

// runRanks executes the stepping loop replicated across ranks with the
// ocean's barotropic solve distributed: every rank holds the full model
// state and steps it identically, while each CG iteration's dot products
// and halo exchanges go through the rank communicator. Because the rank
// cuts are block-aligned (ocean.AlignedCuts) and the reduction folds in
// fixed rank order, the trajectory — and hence the -sums fingerprint — is
// byte-identical to the 1-rank run at every rank count, over either
// transport.
//
// With -transport socket the process re-execs itself once per rank
// (children are detected via socket.ChildEnv); rank 0's stdout and the
// -sums file come from the rank-0 child.
func runRanks(opts icoearth.Options, ranks int, transport string, hours float64, gridLev, atmLev int, sums string, out io.Writer) error {
	if transport == "inproc" {
		w := par.NewWorld(ranks)
		w.SetDeadline(rankDeadline)
		errs := make([]error, ranks)
		runErr := w.RunErr(func(c *par.Comm) {
			errs[c.Rank] = rankBody(c, transport, opts, hours, gridLev, atmLev, sums, out)
		})
		return errors.Join(append(errs, runErr)...)
	}

	if rank, n, ok := socket.ChildEnv(); ok {
		if n != ranks {
			return fmt.Errorf("esmrun: rank %d launched for %d ranks but -ranks is %d", rank, n, ranks)
		}
		tp, err := socket.FromEnv(10 * time.Second)
		if err != nil {
			return err
		}
		defer tp.Close()
		var bodyErr error
		runErr := par.RunTransport(tp, func(c *par.Comm) {
			c.SetDeadline(rankDeadline)
			bodyErr = rankBody(c, transport, opts, hours, gridLev, atmLev, sums, out)
		})
		return errors.Join(bodyErr, runErr)
	}
	return socket.Launch(ranks, out, os.Stderr)
}

// rankBody is one rank's share of a multi-rank run: build the full
// simulation, install the distributed barotropic solver over this rank's
// SFC-contiguous shard, and step. Only rank 0 prints and writes -sums.
func rankBody(c *par.Comm, transport string, opts icoearth.Options, hours float64, gridLev, atmLev int, sums string, out io.Writer) error {
	sim, err := icoearth.NewSimulation(opts)
	if err != nil {
		return err
	}
	s := sim.ES.Oc.State
	cuts, err := ocean.AlignedCuts(s, c.Size())
	if err != nil {
		return err
	}
	dec, err := grid.DecomposeAt(sim.ES.G, cuts)
	if err != nil {
		return err
	}
	db, err := ocean.NewDistBarotropic(s, sim.ES.Oc.Dyn.Op.Dt, dec, c)
	if err != nil {
		return err
	}
	sim.ES.Oc.Dyn.Solver = db

	ro := out
	if c.Rank != 0 {
		ro = io.Discard
	}
	if err := runSteps(sim, hours, gridLev, atmLev, ro); err != nil {
		return err
	}
	if c.Rank != 0 {
		return nil
	}
	lo, hi := db.CG.OwnedRange()
	fmt.Fprintf(ro, "ranks: %d (%s), rank 0 owns wet cells [%d,%d): %d halo exchanges, %.3g MiB halo traffic, overlap frac %.2f\n",
		c.Size(), transport, lo, hi, db.CG.HaloXchgs, float64(db.CG.HaloBytes)/(1<<20), db.CG.OverlapFrac())
	return writeSums(sim, sums)
}

// writeSums records the exact end-of-run state fingerprint — conserved
// totals and clock in hex floats (every bit printed), window count — for
// the CI determinism matrix: two runs are equivalent iff their sums files
// are byte-for-byte identical, whatever the worker width or overlap mode.
func writeSums(sim *icoearth.Simulation, path string) error {
	if path == "" {
		return nil
	}
	es := sim.ES
	blob := fmt.Sprintf("total_water_kg %x\ntotal_carbon_kg %x\nsim_time_s %x\nwindows %d\n",
		es.TotalWater(), es.TotalCarbon(), es.SimTime(), es.Windows())
	return os.WriteFile(path, []byte(blob), 0o644)
}

// writeTrace exports the run trace (when one was recorded) and prints its
// text summary.
func writeTrace(tr *trace.Tracer, path string, out io.Writer) error {
	if tr == nil || path == "" {
		return nil
	}
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n%s", tr.Summary())
	fmt.Fprintf(out, "trace: %s (load in chrome://tracing)\n", path)
	return nil
}

// runDurable executes (or resumes) the simulation under the supervisor
// with the durable generation store at dir: a fsynced checkpoint
// generation every coupling window, the disk work overlapped with the
// next window. A resumed run restores the newest generation that
// validates and continues on the uninterrupted run's exact trajectory
// (same -sums fingerprint). The RunReport is written even on failure,
// with the failure recorded in it.
func runDurable(sim *icoearth.Simulation, ckptDir, resumeDir, crashAt, reportPath string, hours float64, tr *trace.Tracer, tracePath string, out io.Writer) error {
	es := sim.ES
	total := int(math.Ceil(hours * 3600 / es.Cfg.CouplingDt))
	if total < 1 {
		total = 1
	}
	dir := ckptDir
	if resumeDir != "" {
		dir = resumeDir
		// Stat before NewSupervisor: opening the store would create the
		// directory and turn "nothing to resume" into an empty store.
		if fi, err := os.Stat(resumeDir); err != nil || !fi.IsDir() {
			return fmt.Errorf("%w: %s", errResumeMissing, resumeDir)
		}
	}
	cfg := coupler.SuperviseConfig{
		Dir:             dir,
		CheckpointEvery: 1,
		WindowDeadline:  30 * time.Second,
		Async:           true,
	}
	if crashAt != "" {
		ks, err := fault.ParseKillSpec(crashAt)
		if err != nil {
			return err
		}
		ks.Arm(&cfg)
	}
	sv, err := coupler.NewSupervisor(es, cfg)
	if err != nil {
		return err
	}
	writeReport := func(rep *coupler.RunReport) error {
		if reportPath == "" {
			return nil
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report: %s\n", reportPath)
		return nil
	}

	if resumeDir != "" {
		snap, meta, rejected, err := sv.Store().LoadNewest()
		for _, r := range rejected {
			fmt.Fprintf(out, "resume: rejected generation %d: %s\n", r.Seq, r.Reason)
		}
		if err == nil {
			err = es.ApplySnapshot(snap)
		}
		if err != nil {
			err = fmt.Errorf("esmrun: resume from %s: %w", resumeDir, err)
			rep := sv.Report()
			rep.Failure = err.Error()
			if werr := writeReport(rep); werr != nil {
				return werr
			}
			return err
		}
		fmt.Fprintf(out, "resume: window %d restored from generation %d (%d windows to go)\n",
			meta.Window, meta.Seq, total-es.Windows())
	}

	remaining := total - es.Windows()
	if remaining < 0 {
		remaining = 0
	}
	wall0 := time.Now()
	rep, runErr := sv.Run(remaining)
	fmt.Fprintf(out, "durable: %d checkpoints, %.1f MiB published, ckpt lane %.1f ms, %d rollbacks\n",
		rep.Checkpoints, float64(rep.CheckpointBytes)/(1<<20), float64(rep.CheckpointNs)/1e6, rep.Rollbacks)
	if err := writeReport(rep); err != nil {
		return err
	}
	if err := writeTrace(tr, tracePath, out); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("%w: %v", errSimFault, runErr)
	}
	fmt.Fprintf(out, "durable run completed: %d windows, water drift %.2e, carbon drift %.2e, wall %.1fs\n",
		es.Windows(), rep.WaterDrift, rep.CarbonDrift, time.Since(wall0).Seconds())
	return nil
}

// runChaos executes the simulation under the supervisor with a seeded
// fault plan armed, then reports every fault fired and every recovery
// taken. The run must end with conserved quantities intact — that is the
// whole point of the recovery layer.
func runChaos(sim *icoearth.Simulation, spec, reportPath string, hours float64, ckptDir string, tr *trace.Tracer, tracePath string, out io.Writer) error {
	seed, plan, err := fault.ParseChaosSpec(spec)
	if err != nil {
		return err
	}
	es := sim.ES
	windows := int(math.Ceil(hours * 3600 / es.Cfg.CouplingDt))
	if windows < 1 {
		windows = 1
	}
	if len(plan) == 0 {
		plan = fault.AutoPlan(fault.NewRNG(seed), windows)
	}

	dir := ckptDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "esmrun-chaos-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}

	cfg := coupler.SuperviseConfig{
		Dir:             dir,
		CheckpointEvery: 1,
		WindowDeadline:  30 * time.Second,
	}
	in := fault.NewInjector(seed, plan)
	fault.Arm(in, es, &cfg)
	sv, err := coupler.NewSupervisor(es, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "chaos: seed %d, %d windows, plan %s\n", seed, windows, plan)
	wall0 := time.Now()
	rep, runErr := sv.Run(windows)
	for _, ev := range in.Events() {
		fmt.Fprintf(out, "  injected @%d: %s\n", ev.Window, ev.Detail)
	}
	for _, f := range rep.Faults {
		fmt.Fprintf(out, "  observed @%d [%s]: %s\n", f.Window, f.Kind, f.Detail)
	}
	for _, d := range rep.Degradations {
		fmt.Fprintf(out, "  degraded @%d [%s]: %s\n", d.Window, d.Kind, d.Detail)
	}
	fmt.Fprintf(out, "recovery: %d checkpoints (%.1f ms total), %d rollbacks (%.1f ms total), %d retries\n",
		rep.Checkpoints, float64(rep.CheckpointNs)/1e6, rep.Rollbacks, float64(rep.RollbackNs)/1e6, rep.Retries)

	if reportPath != "" {
		blob, err := json.MarshalIndent(struct {
			Seed     uint64             `json:"seed"`
			Plan     string             `json:"plan"`
			Report   *coupler.RunReport `json:"report"`
			Injected []fault.Event      `json:"injected"`
		}{seed, plan.String(), rep, in.Events()}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report: %s\n", reportPath)
	}
	if err := writeTrace(tr, tracePath, out); err != nil {
		return err
	}
	if runErr != nil {
		return fmt.Errorf("%w: chaos run did not survive: %v", errSimFault, runErr)
	}
	fmt.Fprintf(out, "chaos run completed: %d windows, water drift %.2e, carbon drift %.2e, τ %.1f, wall %.1fs\n",
		rep.Windows, rep.WaterDrift, rep.CarbonDrift, sim.Tau(), time.Since(wall0).Seconds())
	return nil
}

func rel(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	d := (a - b) / b
	if d < 0 {
		return -d
	}
	return d
}
