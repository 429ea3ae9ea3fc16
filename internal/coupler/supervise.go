// Supervised execution: a fault-tolerant driver around StepWindow that
// turns the paper's multi-day 1 km campaigns from "any fault loses the
// run" into "any fault loses at most one checkpoint interval". The
// supervisor watches each coupling window with a wall-clock deadline and a
// physics health check (finite state + conservation drift), checkpoints
// periodically through internal/restart's durable generation store
// (fsynced write-temp-then-rename shards under a checksummed manifest, so
// even a SIGKILL mid-write leaves an intact generation on disk), and
// recovers from failures by rolling back to the newest generation that
// validates and retrying with exponential backoff. When retries keep
// failing it degrades the configuration in stages (serialise concurrent
// BGC, halve the atmosphere timestep) before giving up, and reports
// everything it did in a JSON-able RunReport. With Async checkpointing the
// fsync-heavy disk work runs on a background writer overlapped with the
// next coupling window; the writer is joined before the snapshot buffers
// are ever reused or read back.
package coupler

import (
	"errors"
	"fmt"
	"math"
	"time"

	"icoearth/internal/restart"
)

// ErrWindowTimeout reports a coupling window that exceeded the
// supervisor's wall-clock deadline (straggler device, stalled rank).
var ErrWindowTimeout = errors.New("coupler: coupling window exceeded deadline")

// ErrUnhealthy reports a window whose post-step state failed validation:
// non-finite prognostics or conserved quantities drifting beyond tolerance.
var ErrUnhealthy = errors.New("coupler: state unhealthy")

// SuperviseHooks are optional observation/injection points. Both exist so
// a fault-injection harness (internal/fault) can attach without the
// supervisor importing it; production runs leave them nil.
type SuperviseHooks struct {
	// BeforeWindow runs before each attempt of a coupling window.
	BeforeWindow func(window int)
	// AfterCheckpoint runs after a checkpoint generation has been written
	// (and before it is ever read back) — the seam where checkpoint
	// corruption faults are injected.
	AfterCheckpoint func(dir string, window int)
}

// SuperviseConfig configures supervised execution. Zero values get
// sensible defaults (see NewSupervisor).
type SuperviseConfig struct {
	// Dir is the root of the durable checkpoint store (restart.Store):
	// sequence-numbered generation subdirectories, the newest two kept.
	Dir string
	// NFiles is the writer-file count per checkpoint (default 3).
	NFiles int
	// CheckpointEvery is the checkpoint cadence in coupling windows
	// (default 1: every window).
	CheckpointEvery int
	// WindowDeadline is the wall-clock watchdog per window; 0 disables it.
	WindowDeadline time.Duration
	// MaxRetries is how many rollback-and-retry attempts are made per
	// window before degrading the configuration (default 2).
	MaxRetries int
	// BackoffBase/BackoffMax bound the exponential backoff between
	// retries (defaults 2ms / 100ms — wall time, kept small because the
	// devices are simulated).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// WaterDriftTol / CarbonDriftTol are relative conservation-drift
	// tolerances for the health check (default 1e-6).
	WaterDriftTol  float64
	CarbonDriftTol float64
	// Async overlaps the durable checkpoint write (fsync and all) with the
	// next coupling window on a background writer. The snapshot handed to
	// the writer is a deep clone, so the live state is free to step; the
	// writer is joined before the next checkpoint, any rollback read, and
	// run end. Determinism is unaffected — only wall-clock attribution
	// moves from the window boundary into the join.
	Async bool
	// Clock supplies the supervisor's wall-clock readings (checkpoint and
	// rollback cost attribution). Defaults to time.Now; tests inject a
	// deterministic clock so RunReports are reproducible byte for byte.
	Clock func() time.Time
	Hooks SuperviseHooks
}

// EventRecord is one noteworthy supervisor event.
type EventRecord struct {
	Window int    `json:"window"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// RunReport is the structured outcome of a supervised run.
type RunReport struct {
	StartWindow int  `json:"start_window"`
	Windows     int  `json:"windows"`
	Completed   bool `json:"completed"`
	Checkpoints int  `json:"checkpoints"`
	Rollbacks   int  `json:"rollbacks"`
	Retries     int  `json:"retries"`
	// CheckpointNs is the wall time spent writing checkpoints (directory
	// preparation included); RollbackNs is the wall time spent recovering —
	// reading generations back (including corrupt attempts), checksum
	// verification, and state restoration — so recovery cost is fully
	// attributed rather than folded into the window it interrupted.
	CheckpointNs int64 `json:"checkpoint_ns"`
	RollbackNs   int64 `json:"rollback_ns"`
	// CheckpointBytes is the durable payload written across all published
	// checkpoint generations (the bench gate's ckpt_bytes_per_window).
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// Failure carries the terminal error of an uncompleted run, so a
	// RunReport read off disk explains itself without the process's stderr.
	Failure      string        `json:"failure,omitempty"`
	Faults       []EventRecord `json:"faults,omitempty"`
	Degradations []EventRecord `json:"degradations,omitempty"`
	FinalWater   float64       `json:"final_water_kg"`
	FinalCarbon  float64       `json:"final_carbon_kg"`
	WaterDrift   float64       `json:"water_drift_rel"`
	CarbonDrift  float64       `json:"carbon_drift_rel"`
	// AtmWaitFrac is the fraction of the atmosphere device's time spent
	// waiting at coupling windows (the paper's overlap-efficiency metric).
	AtmWaitFrac float64 `json:"atm_wait_frac"`
}

// HealthCheck validates the post-window state: every prognostic finite and
// the conserved totals within relative tolerance of the reference values.
// The comparisons are written so a NaN total fails them (NaN compares
// false against everything, so drift <= tol is asserted, not its inverse).
func (es *EarthSystem) HealthCheck(refWater, refCarbon, waterTol, carbonTol float64) error {
	if err := es.Atm.State.CheckFinite(); err != nil {
		return fmt.Errorf("%w: atmosphere: %v", ErrUnhealthy, err)
	}
	if err := es.Oc.State.CheckFinite(); err != nil {
		return fmt.Errorf("%w: ocean: %v", ErrUnhealthy, err)
	}
	if drift := relDrift(es.TotalWater(), refWater); !(drift <= waterTol) {
		return fmt.Errorf("%w: water drift %e exceeds %e", ErrUnhealthy, drift, waterTol)
	}
	if drift := relDrift(es.TotalCarbon(), refCarbon); !(drift <= carbonTol) {
		return fmt.Errorf("%w: carbon drift %e exceeds %e", ErrUnhealthy, drift, carbonTol)
	}
	return nil
}

func relDrift(now, ref float64) float64 {
	if ref == 0 {
		return math.Abs(now)
	}
	return math.Abs(now-ref) / math.Abs(ref)
}

// Supervisor drives an EarthSystem through coupling windows with
// watchdog, durable checkpointing, rollback-and-retry and staged
// degradation.
type Supervisor struct {
	es  *EarthSystem
	cfg SuperviseConfig
	rep *RunReport

	store          *restart.Store
	lastCkptWindow int

	refWater, refCarbon float64
	degradeStage        int
}

// NewSupervisor prepares supervised execution of es, filling config
// defaults and recording the conservation reference values. The first
// checkpoint is written on the first Run call, before any window steps.
func NewSupervisor(es *EarthSystem, cfg SuperviseConfig) (*Supervisor, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("coupler: supervisor needs a checkpoint dir")
	}
	if cfg.NFiles <= 0 {
		cfg.NFiles = 3
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 2
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 100 * time.Millisecond
	}
	if cfg.WaterDriftTol <= 0 {
		cfg.WaterDriftTol = 1e-6
	}
	if cfg.CarbonDriftTol <= 0 {
		cfg.CarbonDriftTol = 1e-6
	}
	if cfg.Clock == nil {
		// The default clock is the one sanctioned wall-clock read of the
		// supervision layer; everything downstream goes through cfg.Clock.
		cfg.Clock = time.Now //icovet:ignore nondetseed injected-clock seam: the default must read the real clock
	}
	store, err := restart.OpenStore(cfg.Dir, 2)
	if err != nil {
		return nil, fmt.Errorf("coupler: opening checkpoint store: %w", err)
	}
	return &Supervisor{
		es:             es,
		cfg:            cfg,
		rep:            &RunReport{StartWindow: es.Windows()},
		store:          store,
		lastCkptWindow: -1,
		refWater:       es.TotalWater(),
		refCarbon:      es.TotalCarbon(),
	}, nil
}

// Store exposes the durable checkpoint store (esmrun resumes through it).
func (sv *Supervisor) Store() *restart.Store { return sv.store }

// Report returns the run report accumulated so far.
func (sv *Supervisor) Report() *RunReport { return sv.rep }

// Run advances the system by nWindows coupling windows under supervision
// and returns the report. On an unrecoverable failure the report (with
// Completed=false) is returned alongside the error. Run may be called
// repeatedly; each call advances nWindows further and the report
// accumulates.
func (sv *Supervisor) Run(nWindows int) (*RunReport, error) {
	target := sv.es.Windows() + nWindows
	retries := 0
	for sv.es.Windows() < target {
		w := sv.es.Windows()
		if sv.cfg.Hooks.BeforeWindow != nil {
			sv.cfg.Hooks.BeforeWindow(w)
		}
		if sv.lastCkptWindow < 0 || w-sv.lastCkptWindow >= sv.cfg.CheckpointEvery {
			if err := sv.checkpoint(w); err != nil {
				return sv.fail(err)
			}
		}
		err := sv.stepWithDeadline()
		if err == nil {
			err = sv.es.HealthCheck(sv.refWater, sv.refCarbon, sv.cfg.WaterDriftTol, sv.cfg.CarbonDriftTol)
		}
		if err == nil {
			retries = 0
			continue
		}
		sv.rep.Faults = append(sv.rep.Faults, EventRecord{Window: w, Kind: classify(err), Detail: err.Error()})
		sv.es.tkWin.InstantArg("supervisor:fault:"+classify(err), "window", int64(w))
		if rbErr := sv.rollback(); rbErr != nil {
			return sv.fail(fmt.Errorf("coupler: window %d failed (%v) and recovery failed: %w", w, err, rbErr))
		}
		retries++
		sv.rep.Retries++
		sv.es.tkWin.InstantArg("supervisor:retry", "window", int64(w))
		if retries > sv.cfg.MaxRetries {
			if !sv.degrade(w) {
				return sv.fail(fmt.Errorf("coupler: window %d unrecoverable after %d retries and all degradations: %w",
					w, retries-1, err))
			}
			retries = 0
		}
		time.Sleep(sv.backoff(retries))
	}
	// Join the last window's overlapped checkpoint before declaring
	// success: a run is only complete once its newest durable generation
	// actually landed (or the write's failure is surfaced).
	if err := sv.drainCkpt(); err != nil {
		return sv.fail(fmt.Errorf("coupler: final checkpoint write failed: %w", err))
	}
	return sv.finish(true), nil
}

// fail records the terminal error in the report and closes it out.
func (sv *Supervisor) fail(err error) (*RunReport, error) {
	sv.rep.Failure = err.Error()
	return sv.finish(false), err
}

// backoff returns the exponential wait before the given retry attempt.
func (sv *Supervisor) backoff(retry int) time.Duration {
	d := sv.cfg.BackoffBase
	for i := 1; i < retry && d < sv.cfg.BackoffMax; i++ {
		d *= 2
	}
	if d > sv.cfg.BackoffMax {
		d = sv.cfg.BackoffMax
	}
	return d
}

func classify(err error) string {
	switch {
	case errors.Is(err, ErrWindowTimeout):
		return "timeout"
	case errors.Is(err, ErrUnhealthy):
		return "health"
	default:
		return "step-error"
	}
}

// stepWithDeadline runs one StepWindow under the wall-clock watchdog. A
// window that overruns the deadline is still joined before the state is
// touched — injected stalls are finite — and then reported as
// ErrWindowTimeout so the supervisor rolls it back.
func (sv *Supervisor) stepWithDeadline() error {
	if sv.cfg.WindowDeadline <= 0 {
		return sv.es.StepWindow()
	}
	done := make(chan error, 1)
	go func() { done <- sv.es.StepWindow() }()
	timer := time.NewTimer(sv.cfg.WindowDeadline)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		err := <-done
		if err != nil {
			return err
		}
		return fmt.Errorf("window overran %v: %w", sv.cfg.WindowDeadline, ErrWindowTimeout)
	}
}

// checkpoint persists the current state as a new durable generation. The
// whole operation is charged to CheckpointNs — in Async mode that is the
// join of the previous window's write (the stall the overlap failed to
// hide) plus the snapshot clone and dispatch; the disk work itself runs
// under the background writer, overlapped with the next window.
func (sv *Supervisor) checkpoint(window int) error {
	t0 := sv.cfg.Clock()
	ts := sv.es.tkWin.Start()
	defer func() {
		sv.rep.CheckpointNs += sv.cfg.Clock().Sub(t0).Nanoseconds()
		sv.es.tkWin.EndArg("supervisor:checkpoint", ts, "window", int64(window))
	}()
	if err := sv.drainCkpt(); err != nil {
		return err
	}
	snap := sv.es.Snapshot()
	if sv.cfg.Async {
		// The snapshot references the live slices, which keep mutating as
		// the next window steps — hand the writer a deep clone.
		sv.store.WriteAsync(snap.Clone(), window, sv.cfg.NFiles)
		sv.lastCkptWindow = window
		return nil
	}
	n, dir, err := sv.store.Write(snap, window, sv.cfg.NFiles)
	if err != nil {
		return err
	}
	sv.noteCkpt(dir, window, n)
	sv.lastCkptWindow = window
	return nil
}

// drainCkpt joins the in-flight async checkpoint write, if any, recording
// the published generation (and firing the AfterCheckpoint hook) on
// success. With nothing in flight it is a no-op.
func (sv *Supervisor) drainCkpt() error {
	res := sv.store.WaitResult()
	if res.Err != nil {
		return res.Err
	}
	if res.Dir != "" {
		sv.noteCkpt(res.Dir, res.Window, res.Bytes)
	}
	return nil
}

// noteCkpt accounts one published checkpoint generation. The hook fires
// here — after the generation is durable, before it can ever be read
// back — which in Async mode is the join, not the dispatch, so injected
// checkpoint corruption (internal/fault) still always lands ahead of any
// rollback read.
func (sv *Supervisor) noteCkpt(dir string, window int, bytes int64) {
	sv.rep.Checkpoints++
	sv.rep.CheckpointBytes += bytes
	if sv.cfg.Hooks.AfterCheckpoint != nil {
		sv.cfg.Hooks.AfterCheckpoint(dir, window)
	}
}

// rollback restores the newest checkpoint generation that validates,
// recording every generation the store rejected as corrupt. The whole
// recovery — joining an in-flight write, every read attempt (including
// ones rejected as corrupt), checksum verification, and the state
// restoration — is charged to RollbackNs, so recovery cost is fully
// attributed.
func (sv *Supervisor) rollback() error {
	t0 := sv.cfg.Clock()
	ts := sv.es.tkWin.Start()
	defer func() {
		sv.rep.RollbackNs += sv.cfg.Clock().Sub(t0).Nanoseconds()
		sv.es.tkWin.End("supervisor:rollback", ts)
	}()
	// Join the overlapped write first: the newest generation must be fully
	// published (and the corruption-injection hook fired) before recovery
	// decides which generation to trust.
	if err := sv.drainCkpt(); err != nil {
		return fmt.Errorf("joining in-flight checkpoint: %w", err)
	}
	snap, meta, rejected, err := sv.store.LoadNewest()
	for _, r := range rejected {
		// Window -1: a generation rejected before its manifest validated
		// has no trustworthy window number.
		sv.rep.Faults = append(sv.rep.Faults, EventRecord{
			Window: -1, Kind: "checkpoint-corrupt", Detail: r.Reason,
		})
		sv.es.tkWin.InstantArg("supervisor:ckpt-corrupt", "gen", int64(r.Seq))
	}
	if err != nil {
		if errors.Is(err, restart.ErrCorrupt) || errors.Is(err, restart.ErrNoCheckpoint) {
			return fmt.Errorf("coupler: no intact checkpoint generation left: %w", err)
		}
		return err
	}
	if err := sv.es.ApplySnapshot(snap); err != nil {
		return err
	}
	sv.rep.Rollbacks++
	sv.lastCkptWindow = meta.Window
	return nil
}

// degrade applies the next degradation stage: first serialise a
// concurrent BGC onto the CPU device, then halve the atmosphere timestep.
// Returns false when no stage is left.
func (sv *Supervisor) degrade(window int) bool {
	sv.es.tkWin.InstantArg("supervisor:degrade", "window", int64(window))
	if sv.degradeStage == 0 {
		sv.degradeStage = 1
		if sv.es.Bgc.Concurrent {
			sv.es.Bgc.Dev = sv.es.CPU
			sv.es.Bgc.Concurrent = false
			sv.es.Cfg.BGCConcurrent = false
			sv.rep.Degradations = append(sv.rep.Degradations, EventRecord{
				Window: window, Kind: "bgc-serialised",
				Detail: "concurrent BGC moved to the CPU device",
			})
			return true
		}
	}
	if sv.degradeStage == 1 {
		sv.degradeStage = 2
		sv.es.Cfg.AtmDt /= 2
		sv.rep.Degradations = append(sv.rep.Degradations, EventRecord{
			Window: window, Kind: "atm-dt-halved",
			Detail: fmt.Sprintf("atmosphere timestep reduced to %gs", sv.es.Cfg.AtmDt),
		})
		return true
	}
	return false
}

// finish stamps the final conservation numbers into the report. Any
// checkpoint write still in flight on a failure path is joined here so no
// writer goroutine outlives the run; a generation that did publish is
// still counted.
func (sv *Supervisor) finish(completed bool) *RunReport {
	if res := sv.store.WaitResult(); res.Err == nil && res.Dir != "" {
		sv.noteCkpt(res.Dir, res.Window, res.Bytes)
	}
	sv.rep.Completed = completed
	sv.rep.Windows = sv.es.Windows() - sv.rep.StartWindow
	sv.rep.FinalWater = sv.es.TotalWater()
	sv.rep.FinalCarbon = sv.es.TotalCarbon()
	sv.rep.WaterDrift = relDrift(sv.rep.FinalWater, sv.refWater)
	sv.rep.CarbonDrift = relDrift(sv.rep.FinalCarbon, sv.refCarbon)
	sv.rep.AtmWaitFrac = sv.es.AtmWaitFrac()
	return sv.rep
}
