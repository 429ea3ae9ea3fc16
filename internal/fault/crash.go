// Process-level crash harness: a KillSpec names one point in a supervised
// run at which the process SIGKILLs itself — a coupling-window boundary,
// or one of the durability barriers inside the durable checkpoint write
// protocol (mid-write, torn state on disk). The crash-lottery test and
// esmrun -crash-at use it to prove the property the durable store sells:
// no matter where the process dies, a resume continues the run
// byte-for-byte identical to an uninterrupted one.
package fault

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"

	"icoearth/internal/coupler"
	"icoearth/internal/restart"
)

// killSites are the durability barriers restart exposes to the kill hook,
// in write-protocol order. "shard-temp" fires with a shard's temp file
// fsynced but not yet renamed, "manifest-temp" likewise for the manifest
// (every shard already in place), "manifest-published" after the
// generation is fully durable.
var killSites = []string{"shard-temp", "manifest-temp", "manifest-published"}

// KillSpec is one self-SIGKILL point in a supervised run.
type KillSpec struct {
	// Window kills at the start of this coupling window (used when Site
	// is empty).
	Window int
	// Site kills at the Occurrence'th firing of this durability barrier
	// (see killSites) inside the durable checkpoint writer.
	Site       string
	Occurrence int
}

// ParseKillSpec parses "window=N" (kill at the start of window N) or
// "write=SITE:N" (kill at the N'th firing of durability barrier SITE;
// ":N" optional, default 1).
func ParseKillSpec(s string) (KillSpec, error) {
	key, val, ok := strings.Cut(s, "=")
	if !ok {
		return KillSpec{}, fmt.Errorf("fault: kill spec %q: want window=N or write=SITE[:N]", s)
	}
	switch key {
	case "window":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return KillSpec{}, fmt.Errorf("fault: kill spec %q: bad window number", s)
		}
		return KillSpec{Window: n}, nil
	case "write":
		site, occStr, hasOcc := strings.Cut(val, ":")
		occ := 1
		if hasOcc {
			n, err := strconv.Atoi(occStr)
			if err != nil || n < 1 {
				return KillSpec{}, fmt.Errorf("fault: kill spec %q: bad occurrence", s)
			}
			occ = n
		}
		valid := false
		for _, known := range killSites {
			if site == known {
				valid = true
			}
		}
		if !valid {
			return KillSpec{}, fmt.Errorf("fault: kill spec %q: unknown site %q (want one of %s)",
				s, site, strings.Join(killSites, ", "))
		}
		return KillSpec{Site: site, Occurrence: occ}, nil
	}
	return KillSpec{}, fmt.Errorf("fault: kill spec %q: unknown key %q", s, key)
}

func (ks KillSpec) String() string {
	if ks.Site != "" {
		return fmt.Sprintf("write=%s:%d", ks.Site, ks.Occurrence)
	}
	return fmt.Sprintf("window=%d", ks.Window)
}

// Arm installs the kill point. Window kills wrap the supervisor's
// BeforeWindow hook (existing hooks run first); site kills install the
// restart package's kill hook, which the durable writer invokes from
// whichever goroutine called the write — SIGKILL works from any of them.
// Arm before the run starts; the hook stays until the process dies.
func (ks KillSpec) Arm(cfg *coupler.SuperviseConfig) {
	if ks.Site == "" {
		prev := cfg.Hooks.BeforeWindow
		cfg.Hooks.BeforeWindow = func(w int) {
			if prev != nil {
				prev(w)
			}
			if w == ks.Window {
				sigkillSelf()
			}
		}
		return
	}
	// The barriers fire on the goroutine that called the store's write —
	// the single background writer, or the caller in sync mode — never on
	// the per-shard goroutines it fans out to, which have all joined
	// before the first barrier; and a write is joined before the next one
	// starts. So this counter needs no lock.
	occurrences := 0
	restart.SetKillHook(func(site string) {
		if site != ks.Site {
			return
		}
		occurrences++
		if occurrences == ks.Occurrence {
			sigkillSelf()
		}
	})
}

// sigkillSelf delivers SIGKILL to the own process: death with no deferred
// functions, no flushes, no atexit — the honest process-loss model. The
// signal cannot be caught; block until it lands so no further instruction
// of the torn write executes.
func sigkillSelf() {
	syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {}
}
