// Tests for the overlapped coupling window: the concurrent
// GPU-side/CPU-side execution with the double-buffered asynchronous
// exchange must be bit-identical to the sequential (NoOverlap) reference
// at every worker width, and the generation-indexed buffers must survive
// rollback taken at either buffer parity.
package coupler

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"icoearth/internal/sched"
)

// snapshotEqualExact compares two snapshots field-by-field with exact
// float64 equality (bit pattern via ==, which only differs from bit
// comparison on NaN — conservation checks reject NaN separately).
func snapshotEqualExact(t *testing.T, label string, a, b map[string][]float64) {
	t.Helper()
	snapshotEqual(t, label, a, b, false)
}

// snapshotEqualProg is snapshotEqualExact minus the AtmWait/OceanWait
// scalars: the waits are timing diagnostics computed from the monotonic
// device clocks, which a rollback deliberately does NOT rewind (they
// model wall-clock time), so per-window clock deltas round differently
// at different clock magnitudes. Every prognostic field and accounting
// scalar still compares with exact ==; the waits get a 1e-9 relative
// bound instead.
func snapshotEqualProg(t *testing.T, label string, a, b map[string][]float64) {
	t.Helper()
	snapshotEqual(t, label, a, b, true)
}

func snapshotEqual(t *testing.T, label string, a, b map[string][]float64, skipWaits bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: field sets differ: %d vs %d fields", label, len(a), len(b))
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok {
			t.Fatalf("%s: field %q missing from second snapshot", label, name)
		}
		if len(av) != len(bv) {
			t.Fatalf("%s: field %q length %d vs %d", label, name, len(av), len(bv))
		}
		for i := range av {
			if skipWaits && name == "coupler.scalars" && (i == 3 || i == 4) {
				if d := math.Abs(av[i] - bv[i]); d > 1e-9*math.Abs(av[i]) {
					t.Fatalf("%s: wait scalar [%d]: %x vs %x", label, i, av[i], bv[i])
				}
				continue
			}
			if av[i] != bv[i] {
				t.Fatalf("%s: field %q[%d]: %x != %x", label, name, i, av[i], bv[i])
			}
		}
	}
}

// TestStepWindowOverlapBitIdentical: N windows with the two sides
// overlapped must equal N windows run sequentially, exactly — every
// prognostic field of every component, every exchange buffer, and every
// coupler scalar — at worker width 1 and at width 4. This is the
// overlapped==sequential contract of ISSUE 7; it deliberately runs
// un-short so the tier-2 race pass exercises it under -race.
func TestStepWindowOverlapBitIdentical(t *testing.T) {
	defer sched.SetWorkers(0)
	const windows = 4
	for _, workers := range []int{1, 4} {
		sched.SetWorkers(workers)
		seq := newTestSystem(t, func(c *Config) { c.NoOverlap = true })
		ovl := newTestSystem(t, nil)
		if ovl.Cfg.NoOverlap {
			t.Fatal("zero-value Config must mean overlapped")
		}
		for w := 0; w < windows; w++ {
			if err := seq.StepWindow(); err != nil {
				t.Fatalf("workers=%d sequential window %d: %v", workers, w, err)
			}
			if err := ovl.StepWindow(); err != nil {
				t.Fatalf("workers=%d overlapped window %d: %v", workers, w, err)
			}
			snapshotEqualExact(t, "workers="+string(rune('0'+workers)),
				seq.Snapshot().Fields, ovl.Snapshot().Fields)
		}
		// Conservation totals and wait accounting agree bitwise too.
		if seq.TotalWater() != ovl.TotalWater() {
			t.Errorf("workers=%d: TotalWater %x != %x", workers, seq.TotalWater(), ovl.TotalWater())
		}
		if seq.TotalCarbon() != ovl.TotalCarbon() {
			t.Errorf("workers=%d: TotalCarbon %x != %x", workers, seq.TotalCarbon(), ovl.TotalCarbon())
		}
		if seq.AtmWait != ovl.AtmWait || seq.OceanWait != ovl.OceanWait {
			t.Errorf("workers=%d: waits (%x,%x) != (%x,%x)", workers,
				seq.AtmWait, seq.OceanWait, ovl.AtmWait, ovl.OceanWait)
		}
		if seq.x.gen != windows || ovl.x.gen != windows {
			t.Errorf("workers=%d: exchange gen %d/%d, want %d (gen must track windows)",
				workers, seq.x.gen, ovl.x.gen, windows)
		}
	}
}

// TestStepWindowOverlapErrorPathNoLeak: when one side fails mid-window,
// both the overlapped and the sequential path must join the other side,
// surface the failure, and leak no goroutines.
func TestStepWindowOverlapErrorPathNoLeak(t *testing.T) {
	for _, mode := range []struct {
		name      string
		noOverlap bool
	}{{"overlap", false}, {"sequential", true}} {
		t.Run(mode.name, func(t *testing.T) {
			es := newTestSystem(t, func(c *Config) { c.NoOverlap = mode.noOverlap })
			baseline := runtime.NumGoroutine()
			es.CPU.SetLaunchHook(func(string) { panic("injected ocean fault") })
			err := es.StepWindow()
			if err == nil {
				t.Fatal("StepWindow swallowed the CPU-side panic")
			}
			if !strings.Contains(err.Error(), "ocean/BGC side failed") {
				t.Errorf("error does not name the failing side: %v", err)
			}
			if es.Windows() != 0 {
				t.Errorf("failed window counted: windows = %d", es.Windows())
			}
			if es.x.gen != 0 {
				t.Errorf("failed window flipped buffers: gen = %d", es.x.gen)
			}
			expectGoroutines(t, baseline)
		})
	}
}

// TestRollbackAcrossBufferFlip: a rollback restored at each buffer parity
// (snapshot at an odd and at an even window count) must put the lagged
// exchange fluxes back into the front buffer of the SNAPSHOT's
// generation, not the restoring system's — including restoring into a
// fresh system whose generation parity differs from the snapshot's. The
// continuation after restore must be bit-identical to the uninterrupted
// run, with a fault injected to force the supervisor-style retry shape.
func TestRollbackAcrossBufferFlip(t *testing.T) {
	for _, at := range []int{1, 2} { // odd parity, even parity
		es := newTestSystem(t, nil)
		for w := 0; w < at; w++ {
			if err := es.StepWindow(); err != nil {
				t.Fatal(err)
			}
		}
		if es.x.gen != at {
			t.Fatalf("gen = %d after %d windows", es.x.gen, at)
		}
		snap, err := restartRoundTrip(t, es.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		// Uninterrupted reference: two more windows.
		if err := es.StepWindow(); err != nil {
			t.Fatal(err)
		}
		if err := es.StepWindow(); err != nil {
			t.Fatal(err)
		}
		refWater, refCarbon := es.TotalWater(), es.TotalCarbon()
		refFields := es.Snapshot().Fields

		// Same-system rollback: fault the next window, restore, re-run.
		es2 := newTestSystem(t, nil)
		if err := es2.ApplySnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if es2.x.gen != at {
			t.Fatalf("restore dropped the generation index: gen = %d, want %d", es2.x.gen, at)
		}
		es2.GPU.SetLaunchHook(func(string) { panic("transient fault") })
		if err := es2.StepWindow(); err == nil {
			t.Fatal("fault did not fire")
		}
		es2.GPU.SetLaunchHook(nil)
		// The torn window corrupted in-flight state; roll back as the
		// supervisor would and replay.
		if err := es2.ApplySnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if err := es2.StepWindow(); err != nil {
			t.Fatal(err)
		}
		if err := es2.StepWindow(); err != nil {
			t.Fatal(err)
		}
		label := "parity-" + string(rune('0'+at))
		snapshotEqualProg(t, label, refFields, es2.Snapshot().Fields)
		if es2.TotalWater() != refWater {
			t.Errorf("%s: TotalWater after rollback %x != %x", label, es2.TotalWater(), refWater)
		}
		if es2.TotalCarbon() != refCarbon {
			t.Errorf("%s: TotalCarbon after rollback %x != %x", label, es2.TotalCarbon(), refCarbon)
		}
		if es2.x.gen != at+2 {
			t.Errorf("%s: gen = %d, want %d", label, es2.x.gen, at+2)
		}
	}
}

// TestStepWindowSteadyStateAllocs: a warmed-up coupling window rebuilds no
// launch record, land flux, discharge map, graph label, closure or error
// slot — a serialised window allocates nothing, an overlapped one only
// the method value of the CPU side it spawns — on one worker or two.
// AllocsPerRun counts the whole process: the pool's workers and the
// spawned CPU side are in the figure.
func TestStepWindowSteadyStateAllocs(t *testing.T) {
	defer sched.SetWorkers(0)
	for _, workers := range []int{1, 2} {
		for _, noOverlap := range []bool{true, false} {
			es := newTestSystem(t, func(c *Config) { c.Workers, c.NoOverlap = workers, noOverlap })
			step := func() {
				if err := es.StepWindow(); err != nil {
					t.Fatal(err)
				}
			}
			step() // captures the land graph, sizes every scratch, spawns the workers
			want := 1.0
			if noOverlap {
				want = 0
			}
			if n := testing.AllocsPerRun(3, step); n != want {
				t.Errorf("workers=%d NoOverlap=%v: StepWindow allocates %v times per window, want %v", workers, noOverlap, n, want)
			}
		}
	}
}
