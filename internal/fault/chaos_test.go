package fault

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"icoearth/internal/coupler"
	"icoearth/internal/machine"
)

func newChaosSystem(t *testing.T) *coupler.EarthSystem {
	t.Helper()
	return coupler.NewOnSuperchip(coupler.LaptopConfig(), machine.GH200(680), 150)
}

func relDiff(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }

// TestChaosRunMatchesFaultFree is the acceptance test of the
// fault-injection layer: a supervised run hit by a kernel crash, a NaN
// blowup AND a corrupted checkpoint generation completes via
// rollback-and-retry, and its conserved totals land on the fault-free
// trajectory to near machine precision (checkpoints are bit-exact and the
// model is deterministic, so retried windows reproduce the clean run).
func TestChaosRunMatchesFaultFree(t *testing.T) {
	const windows = 5
	clean := newChaosSystem(t)
	for i := 0; i < windows; i++ {
		if err := clean.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}

	// The checkpoint written at window 2 is bit-flipped and the NaN fires
	// inside window 2 itself, so the recovery MUST detect the corrupt
	// newest generation and fall back to the previous one.
	plan, err := ParsePlan("crash@1:dycore;ckptflip@2;nan@2:atm.qv")
	if err != nil {
		t.Fatal(err)
	}
	es := newChaosSystem(t)
	cfg := coupler.SuperviseConfig{Dir: t.TempDir(), CheckpointEvery: 1}
	in := NewInjector(1234, plan)
	Arm(in, es, &cfg)
	sv, err := coupler.NewSupervisor(es, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(windows)
	if err != nil {
		t.Fatalf("chaos run failed: %v\nreport: %+v\nevents: %+v", err, rep, in.Events())
	}
	if !in.AllFired() {
		t.Fatalf("not every planned fault fired: %+v", in.Events())
	}
	if rep.Rollbacks < 2 {
		t.Errorf("rollbacks = %d, want >= 2 (crash and NaN)", rep.Rollbacks)
	}
	sawCorrupt := false
	for _, f := range rep.Faults {
		if f.Kind == "checkpoint-corrupt" {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Errorf("corrupted generation never hit during recovery: %+v", rep.Faults)
	}
	if es.Windows() != windows {
		t.Errorf("windows = %d, want %d", es.Windows(), windows)
	}
	if d := relDiff(es.TotalWater(), clean.TotalWater()); !(d <= 1e-12) {
		t.Errorf("water off the fault-free trajectory by %e", d)
	}
	if d := relDiff(es.TotalCarbon(), clean.TotalCarbon()); !(d <= 1e-12) {
		t.Errorf("carbon off the fault-free trajectory by %e", d)
	}
	if rep.WaterDrift > 1e-9 || rep.CarbonDrift > 1e-9 {
		t.Errorf("conservation drift: water %e carbon %e", rep.WaterDrift, rep.CarbonDrift)
	}
}

// TestAsyncChaosFiresAtPlannedWindow: overlapping the checkpoint write
// with the next window moves when the corruption hook runs (at the write's
// join, so it may log after that window's launch faults), not which window
// any fault lands in — the injected and the observed faults are those of
// the synchronous run, window for window.
func TestAsyncChaosFiresAtPlannedWindow(t *testing.T) {
	plan, err := ParsePlan("crash@1:dycore;ckptflip@2;nan@2:atm.qv")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]string
	for i, async := range []bool{false, true} {
		es := newChaosSystem(t)
		cfg := coupler.SuperviseConfig{Dir: t.TempDir(), Async: async}
		in := NewInjector(1234, plan)
		Arm(in, es, &cfg)
		sv, err := coupler.NewSupervisor(es, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sv.Run(4)
		if err != nil {
			t.Fatalf("async=%v: %v", async, err)
		}
		for _, ev := range in.Events() {
			runs[i] = append(runs[i], fmt.Sprintf("injected %s@%d", ev.Kind, ev.Window))
		}
		for _, f := range rep.Faults {
			runs[i] = append(runs[i], fmt.Sprintf("observed %s@%d", f.Kind, f.Window))
		}
		sort.Strings(runs[i])
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("async run's faults differ from the sync run's:\nsync  %v\nasync %v", runs[0], runs[1])
	}
}

// TestChaosAutoPlanSeedsComplete: several auto-derived plans all complete
// under supervision — the property the CI chaos job checks across seeds.
func TestChaosAutoPlanSeedsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	const windows = 4
	for seed := uint64(1); seed <= 3; seed++ {
		plan := AutoPlan(NewRNG(seed), windows)
		es := newChaosSystem(t)
		cfg := coupler.SuperviseConfig{Dir: t.TempDir(), CheckpointEvery: 1}
		in := NewInjector(seed, plan)
		Arm(in, es, &cfg)
		sv, err := coupler.NewSupervisor(es, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sv.Run(windows)
		if err != nil {
			t.Errorf("seed %d (plan %v) failed: %v\nreport %+v", seed, plan, err, rep)
			continue
		}
		if rep.WaterDrift > 1e-9 || rep.CarbonDrift > 1e-9 {
			t.Errorf("seed %d: drift water %e carbon %e", seed, rep.WaterDrift, rep.CarbonDrift)
		}
	}
}

// TestSlowdownFaultDegradesTauOnly: a straggler window slows the simulated
// clock (τ drops) but needs no recovery at all.
func TestSlowdownFaultDegradesTauOnly(t *testing.T) {
	plan, err := ParsePlan("slow@1:4")
	if err != nil {
		t.Fatal(err)
	}
	es := newChaosSystem(t)
	cfg := coupler.SuperviseConfig{Dir: t.TempDir()}
	in := NewInjector(7, plan)
	Arm(in, es, &cfg)
	sv, err := coupler.NewSupervisor(es, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rollbacks != 0 {
		t.Errorf("slowdown forced %d rollbacks", rep.Rollbacks)
	}
	if !in.AllFired() {
		t.Error("slowdown never fired")
	}

	ref := newChaosSystem(t)
	for i := 0; i < 3; i++ {
		if err := ref.StepWindow(); err != nil {
			t.Fatal(err)
		}
	}
	if es.Tau() >= ref.Tau() {
		t.Errorf("straggler run has tau %v >= clean %v", es.Tau(), ref.Tau())
	}
	if d := relDiff(es.TotalWater(), ref.TotalWater()); !(d <= 1e-12) {
		t.Errorf("slowdown perturbed the trajectory by %e", d)
	}
}
