// Wiring between an Injector and a supervised coupled run: Arm attaches
// the plan to the EarthSystem's device hook seams and the Supervisor's
// window/checkpoint hooks, so chaos runs exercise exactly the production
// recovery machinery.
package fault

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"icoearth/internal/atmos"
	"icoearth/internal/coupler"
)

// Arm installs the injector's faults on the Earth system and supervisor
// config: kernel-launch faults (crash, stall, NaN) on every device,
// per-window slowdown on the GPU device, and checkpoint corruption after
// each checkpoint write. Existing hooks in cfg are preserved and run
// first.
func Arm(in *Injector, es *coupler.EarthSystem, cfg *coupler.SuperviseConfig) {
	if tr := es.Tracer(); tr != nil {
		in.SetTrace(tr.Track("fault", 0))
	}
	prevBefore := cfg.Hooks.BeforeWindow
	cfg.Hooks.BeforeWindow = func(w int) {
		if prevBefore != nil {
			prevBefore(w)
		}
		in.SetWindow(w)
		// Straggler faults last one window; restore nominal speed first.
		es.GPU.SetSlowdown(1)
		if f, ok := in.take(
			func(f Fault) bool { return f.Kind == Slowdown },
			func(f Fault) string { return fmt.Sprintf("GPU slowed %gx for one window", f.Factor) },
		); ok {
			es.GPU.SetSlowdown(f.Factor)
		}
	}
	prevAfter := cfg.Hooks.AfterCheckpoint
	cfg.Hooks.AfterCheckpoint = func(dir string, w int) {
		if prevAfter != nil {
			prevAfter(dir, w)
		}
		// With Async this fires at the write's join, after a later
		// window's BeforeWindow: match the generation's own window
		// without moving the one the launch hooks read.
		in.mu.Lock()
		f, ok := in.takeAt(w,
			func(f Fault) bool { return f.Kind == CkptTruncate || f.Kind == CkptBitFlip },
			func(f Fault) string { return fmt.Sprintf("%s in %s", f.Kind, dir) },
		)
		in.mu.Unlock()
		if ok {
			if err := CorruptDir(dir, f.Kind, in.rng); err != nil {
				panic(fmt.Sprintf("fault: corrupting checkpoint: %v", err))
			}
		}
	}
	hook := in.launchHook(es)
	es.GPU.SetLaunchHook(hook)
	es.CPU.SetLaunchHook(hook)
	if es.Bgc.Dev != es.GPU && es.Bgc.Dev != es.CPU {
		es.Bgc.Dev.SetLaunchHook(hook)
	}
}

// oceanSideKernel reports whether a kernel runs on the ocean/BGC side.
func oceanSideKernel(name string) bool {
	return strings.HasPrefix(name, "ocean:") || strings.HasPrefix(name, "bgc:")
}

// oceanSideField reports whether a NaN target lives in ocean/BGC state.
func oceanSideField(target string) bool {
	return strings.HasPrefix(target, "oc.") || strings.HasPrefix(target, "bgc.")
}

// launchHook returns the per-kernel fault hook. NaN faults only fire from
// a kernel on the side that owns the target field, so the corruption is
// written by the goroutine that owns that state (no data race with the
// concurrently running other side).
func (in *Injector) launchHook(es *coupler.EarthSystem) func(name string) {
	return func(name string) {
		f, ok := in.take(func(f Fault) bool {
			switch f.Kind {
			case Crash, Stall:
				return f.Target == "" || strings.HasPrefix(name, f.Target)
			case NaN:
				return oceanSideField(f.Target) == oceanSideKernel(name)
			}
			return false
		}, func(f Fault) string {
			return fmt.Sprintf("%s in kernel %s (target %q)", f.Kind, name, f.Target)
		})
		if !ok {
			return
		}
		switch f.Kind {
		case Crash:
			panic(fmt.Sprintf("fault: injected crash in kernel %s at window %d", name, f.Window))
		case Stall:
			time.Sleep(f.StallFor)
		case NaN:
			field := nanTarget(es, f.Target)
			if field == nil {
				panic(fmt.Sprintf("fault: unknown NaN target %q", f.Target))
			}
			field[in.rng.Intn(len(field))] = math.NaN()
		}
	}
}

// nanTarget resolves a NaN fault's field name to the live slice.
func nanTarget(es *coupler.EarthSystem, target string) []float64 {
	switch target {
	case "", "atm.qv":
		return es.Atm.State.Tracers[atmos.TracerQV]
	case "atm.rho":
		return es.Atm.State.Rho
	case "atm.w":
		return es.Atm.State.W
	case "land.soilmoist":
		return es.Land.State.SoilMoist
	case "oc.temp":
		return es.Oc.State.Temp
	case "oc.salt":
		return es.Oc.State.Salt
	case "bgc.tracer0":
		return es.Bgc.State.Tracers[0]
	}
	return nil
}

// CorruptDir damages one restart file in a checkpoint directory: truncated
// to half (CkptTruncate) or one bit flipped in the payload (CkptBitFlip).
// The victim file and flip position come from the injector's seeded RNG.
func CorruptDir(dir string, kind Kind, rng *RNG) error {
	paths, err := filepath.Glob(filepath.Join(dir, "restart_*.bin"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("fault: no restart files in %s", dir)
	}
	sort.Strings(paths)
	victim := paths[rng.Intn(len(paths))]
	switch kind {
	case CkptTruncate:
		fi, err := os.Stat(victim)
		if err != nil {
			return err
		}
		return os.Truncate(victim, fi.Size()/2)
	case CkptBitFlip:
		raw, err := os.ReadFile(victim)
		if err != nil {
			return err
		}
		if len(raw) < 16 {
			return fmt.Errorf("fault: %s too small to corrupt", victim)
		}
		off := 8 + rng.Intn(len(raw)-16)
		raw[off] ^= 1 << uint(rng.Intn(8))
		return os.WriteFile(victim, raw, 0o644)
	}
	return fmt.Errorf("fault: %v is not a checkpoint fault", kind)
}
