package fault

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"icoearth/internal/par"
	"icoearth/internal/restart"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	if NewRNG(42).Uint64() == NewRNG(43).Uint64() {
		t.Error("different seeds gave the same first draw")
	}
}

func TestParseChaosSpec(t *testing.T) {
	seed, plan, err := ParseChaosSpec("seed=7,plan=crash@3;nan@5:atm.qv;stall@2:50ms;ckptflip@4;slow@6:3")
	if err != nil {
		t.Fatal(err)
	}
	if seed != 7 {
		t.Errorf("seed = %d", seed)
	}
	want := Plan{
		{Kind: Crash, Window: 3},
		{Kind: NaN, Window: 5, Target: "atm.qv"},
		{Kind: Stall, Window: 2, StallFor: 50 * time.Millisecond},
		{Kind: CkptBitFlip, Window: 4},
		{Kind: Slowdown, Window: 6, Factor: 3},
	}
	if !reflect.DeepEqual(plan, want) {
		t.Errorf("plan = %v, want %v", plan, want)
	}
}

func TestParseChaosSpecSeedOnly(t *testing.T) {
	seed, plan, err := ParseChaosSpec("seed=3")
	if err != nil || seed != 3 || len(plan) != 0 {
		t.Errorf("seed=%d plan=%v err=%v", seed, plan, err)
	}
}

func TestParseChaosSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "plan=crash@1", "seed=x", "seed=1,frob=2",
		"seed=1,plan=crash", "seed=1,plan=warp@2", "seed=1,plan=crash@-1",
		"seed=1,plan=stall@1:xyz", "seed=1,plan=slow@1:0.5",
		"seed=1,plan=slow@1:NaN", "seed=1,plan=slow@1:+Inf",
		"seed=1,plan=stall@1:-5s", "seed=1,seed=2",
	} {
		if _, _, err := ParseChaosSpec(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestPlanStringRoundTrip(t *testing.T) {
	plan, err := ParsePlan("crash@3:dycore;nan@5:atm.qv;stall@2:50ms;slow@6:3")
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParsePlan(plan.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", plan.String(), err)
	}
	if !reflect.DeepEqual(plan, again) {
		t.Errorf("round trip: %v vs %v", plan, again)
	}
}

func TestAutoPlanDeterministic(t *testing.T) {
	a := AutoPlan(NewRNG(9), 8)
	b := AutoPlan(NewRNG(9), 8)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different plans: %v vs %v", a, b)
	}
	if len(a) < 2 {
		t.Errorf("plan too small: %v", a)
	}
	for _, f := range a {
		if f.Window < 1 || f.Window >= 8 {
			t.Errorf("fault outside interior windows: %v", f)
		}
	}
}

func TestInjectorFiresOncePerFault(t *testing.T) {
	in := NewInjector(1, Plan{{Kind: Crash, Window: 2}})
	match := func(f Fault) bool { return f.Kind == Crash }
	detail := func(f Fault) string { return "x" }
	in.SetWindow(1)
	if _, ok := in.take(match, detail); ok {
		t.Error("fired in the wrong window")
	}
	in.SetWindow(2)
	if _, ok := in.take(match, detail); !ok {
		t.Fatal("did not fire in its window")
	}
	if _, ok := in.take(match, detail); ok {
		t.Error("fired twice")
	}
	if !in.AllFired() {
		t.Error("AllFired false after firing everything")
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Window != 2 || ev[0].Kind != "crash" {
		t.Errorf("events = %v", ev)
	}
}

// TestMsgHookFaults: drop and delay faults applied through par's message
// hook — the dropped message never arrives (Recv times out), and the
// program still completes.
func TestMsgHookFaults(t *testing.T) {
	in := NewInjector(5, Plan{{Kind: MsgDrop, Window: 0}})
	w := par.NewWorld(2)
	w.SetMsgHook(in.MsgHook())
	var dropped int64
	err := w.RunErr(func(c *par.Comm) {
		if c.Rank == 0 {
			c.Send(1, 1, []float64{42})
			dropped = c.Stats.Dropped
		} else {
			if _, err := c.RecvTimeout(0, 1, 50*time.Millisecond); err == nil {
				t.Error("dropped message was delivered")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Errorf("Dropped = %d", dropped)
	}
	if !in.AllFired() {
		t.Error("drop fault did not fire")
	}
}

func TestCorruptDirTruncate(t *testing.T) {
	dir := t.TempDir()
	s := restart.NewSnapshot()
	s.Add("f", make([]float64, 500))
	if _, err := restart.WriteMultiFile(s, dir, 1); err != nil {
		t.Fatal(err)
	}
	if err := CorruptDir(dir, CkptTruncate, NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := restart.ReadMultiFile(dir); !errors.Is(err, restart.ErrCorrupt) {
		t.Errorf("truncated checkpoint read back: %v", err)
	}
}

func TestCorruptDirBitFlip(t *testing.T) {
	dir := t.TempDir()
	s := restart.NewSnapshot()
	s.Add("f", make([]float64, 500))
	s.Add("g", make([]float64, 300))
	if _, err := restart.WriteMultiFile(s, dir, 2); err != nil {
		t.Fatal(err)
	}
	before := map[string]int64{}
	paths, _ := filepath.Glob(filepath.Join(dir, "restart_*.bin"))
	for _, p := range paths {
		fi, _ := os.Stat(p)
		before[p] = fi.Size()
	}
	if err := CorruptDir(dir, CkptBitFlip, NewRNG(2)); err != nil {
		t.Fatal(err)
	}
	for p, sz := range before {
		fi, _ := os.Stat(p)
		if fi.Size() != sz {
			t.Errorf("bit flip changed size of %s", p)
		}
	}
	if _, err := restart.ReadMultiFile(dir); !errors.Is(err, restart.ErrCorrupt) {
		t.Errorf("bit-flipped checkpoint read back: %v", err)
	}
}

func TestCorruptDirEmpty(t *testing.T) {
	if err := CorruptDir(t.TempDir(), CkptBitFlip, NewRNG(1)); err == nil {
		t.Error("no error for empty dir")
	}
}
