package bench

import (
	"strings"
	"testing"
)

// fixture builds a baseline with one benchmark whose ns/op samples
// centre on median with a small spread.
func fixture(name string, metrics map[string]Summary) *Baseline {
	return &Baseline{
		Schema:     SchemaVersion,
		Host:       Host{OS: "linux", Arch: "amd64", NumCPU: 8},
		Benchmarks: map[string]map[string]Summary{name: metrics},
	}
}

func tight(median float64) Summary {
	return Summary{N: 5, Median: median, Q1: median * 0.99, Q3: median * 1.01,
		Min: median * 0.98, Max: median * 1.02}
}

// TestCompareFlagsSyntheticSlowdown is the acceptance-criteria fixture:
// a 2× ns/op slowdown must fail the gate, with no real benchmarks run.
func TestCompareFlagsSyntheticSlowdown(t *testing.T) {
	oldB := fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(1e6)})
	newB := fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(2e6)})
	rep := Compare(oldB, newB)
	if rep.OK() {
		t.Fatal("2× slowdown passed the gate")
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	r := rep.Regressions[0]
	if r.Benchmark != "BenchmarkHotKernel" || r.Metric != "ns/op" {
		t.Errorf("flagged %s %s", r.Benchmark, r.Metric)
	}
	if r.Change < 0.99 || r.Change > 1.01 {
		t.Errorf("change = %v, want ≈1.0 (i.e. +100%%)", r.Change)
	}
	if !strings.Contains(rep.Format(), "REGRESSION") {
		t.Errorf("report text lacks REGRESSION line:\n%s", rep.Format())
	}
}

func TestCompareWithinToleranceIsQuiet(t *testing.T) {
	oldB := fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(1e6)})
	newB := fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(1.08e6)})
	rep := Compare(oldB, newB)
	if !rep.OK() {
		t.Fatalf("8%% drift inside the 10%% band flagged: %+v", rep.Regressions)
	}
}

func TestCompareNoiseGuardSuppressesWideIQR(t *testing.T) {
	// 20% median move, but the spread is wider than the move: a noisy
	// runner, not a regression.
	oldB := fixture("BenchmarkNoisy", map[string]Summary{
		"ns/op": {N: 5, Median: 1.0e6, Q1: 0.8e6, Q3: 1.3e6, Min: 0.7e6, Max: 1.5e6},
	})
	newB := fixture("BenchmarkNoisy", map[string]Summary{
		"ns/op": {N: 5, Median: 1.2e6, Q1: 0.9e6, Q3: 1.45e6, Min: 0.85e6, Max: 1.6e6},
	})
	rep := Compare(oldB, newB)
	if !rep.OK() {
		t.Fatalf("noise-guard failed to suppress: %+v", rep.Regressions)
	}
}

// TestCompareAbsoluteFloorExemptsMicroBenchmarks: a one-shot 20 µs
// benchmark swings wildly on a loaded runner; below the ns/op floor it
// is tracked but never gated.
func TestCompareAbsoluteFloorExemptsMicroBenchmarks(t *testing.T) {
	oldB := fixture("BenchmarkTiny", map[string]Summary{"ns/op": tight(2e4)})
	newB := fixture("BenchmarkTiny", map[string]Summary{"ns/op": tight(6e4)})
	if rep := Compare(oldB, newB); !rep.OK() {
		t.Fatalf("sub-floor benchmark gated: %+v", rep.Regressions)
	}
}

// TestCompareHostSpeedNormalization: a new run from a machine whose
// calibration workload ran 25% slower has its timings divided by 1.25
// before gating — uniform machine drift is not a regression, but a real
// slowdown on top of it still is.
// TestCompareFloorGatesNewRun: a metric with an absolute Floor fails when
// the new median falls short, even though the old baseline never recorded
// it — the floor is a standing contract, not a relative comparison.
func TestCompareFloorGatesNewRun(t *testing.T) {
	oldB := fixture("BenchmarkOther", map[string]Summary{"ns/op": tight(1e6)})
	newB := fixture("BenchmarkDycoreStepSpeedup", map[string]Summary{
		"parallel_speedup_x": tight(1.2),
	})
	newB.Benchmarks["BenchmarkOther"] = map[string]Summary{"ns/op": tight(1e6)}
	rep := Compare(oldB, newB)
	if rep.OK() {
		t.Fatal("1.2× speedup passed the 1.8× floor")
	}
	if len(rep.FloorViolations) != 1 {
		t.Fatalf("floor violations = %+v", rep.FloorViolations)
	}
	fv := rep.FloorViolations[0]
	if fv.Benchmark != "BenchmarkDycoreStepSpeedup" || fv.Metric != "parallel_speedup_x" {
		t.Errorf("flagged %s %s", fv.Benchmark, fv.Metric)
	}
	if !strings.Contains(rep.Format(), "BELOW-FLOOR") {
		t.Errorf("report text lacks BELOW-FLOOR line:\n%s", rep.Format())
	}
}

// TestCompareFloorSatisfiedAndAbsent: above the floor passes, and a run
// that never reports the metric (the benchmark skipped on a small
// machine) passes too.
func TestCompareFloorSatisfiedAndAbsent(t *testing.T) {
	oldB := fixture("BenchmarkOther", map[string]Summary{"ns/op": tight(1e6)})
	above := fixture("BenchmarkDycoreStepSpeedup", map[string]Summary{
		"parallel_speedup_x": tight(2.6),
	})
	above.Benchmarks["BenchmarkOther"] = map[string]Summary{"ns/op": tight(1e6)}
	if rep := Compare(oldB, above); !rep.OK() {
		t.Fatalf("2.6× speedup gated: %+v", rep)
	}
	absent := fixture("BenchmarkOther", map[string]Summary{"ns/op": tight(1e6)})
	if rep := Compare(oldB, absent); !rep.OK() {
		t.Fatalf("run without the speedup metric gated: %+v", rep)
	}
}

func TestCompareHostSpeedNormalization(t *testing.T) {
	oldB := fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(1e6)})
	oldB.CalibNs = 1e8
	// Machine 25% slower, benchmark 24% slower raw → flat after normalization.
	newB := fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(1.24e6)})
	newB.CalibNs = 1.25e8
	if rep := Compare(oldB, newB); !rep.OK() {
		t.Fatalf("uniform machine drift gated: %+v", rep.Regressions)
	}
	// Machine 25% slower AND the benchmark 2.5× slower raw → 2× real
	// slowdown survives the normalization and fails the gate.
	newB = fixture("BenchmarkHotKernel", map[string]Summary{"ns/op": tight(2.5e6)})
	newB.CalibNs = 1.25e8
	rep := Compare(oldB, newB)
	if rep.OK() || len(rep.Regressions) != 1 {
		t.Fatalf("real regression normalized away: %+v", rep)
	}
	if c := rep.Regressions[0].Change; c < 0.95 || c > 1.05 {
		t.Errorf("normalized change = %v, want ≈1.0", c)
	}
	// Throughput metrics scale the other way: tau from a 25% slower
	// machine is multiplied back up before gating.
	oldB = fixture("BenchmarkCoupled", map[string]Summary{"tau_simdays_per_day": tight(10)})
	oldB.CalibNs = 1e8
	newB = fixture("BenchmarkCoupled", map[string]Summary{"tau_simdays_per_day": tight(8.1)})
	newB.CalibNs = 1.25e8
	if rep := Compare(oldB, newB); !rep.OK() {
		t.Fatalf("throughput drop explained by machine drift gated: %+v", rep.Regressions)
	}
	// Counts never normalize: allocs/op growth gates regardless of calibration.
	oldB = fixture("BenchmarkHot", map[string]Summary{"allocs/op": tightInt(4)})
	oldB.CalibNs = 1e8
	newB = fixture("BenchmarkHot", map[string]Summary{"allocs/op": tightInt(5)})
	newB.CalibNs = 1.25e8
	if Compare(oldB, newB).OK() {
		t.Fatal("alloc growth normalized away by host speed")
	}
}

func TestCompareZeroToleranceOnAllocs(t *testing.T) {
	oldB := fixture("BenchmarkHot", map[string]Summary{"allocs/op": tightInt(7)})
	newB := fixture("BenchmarkHot", map[string]Summary{"allocs/op": tightInt(8)})
	rep := Compare(oldB, newB)
	if rep.OK() {
		t.Fatal("alloc-count growth passed the 0% gate")
	}
	// Going from 0 allocs to any allocs is also a regression.
	oldB = fixture("BenchmarkHot", map[string]Summary{"allocs/op": tightInt(0)})
	newB = fixture("BenchmarkHot", map[string]Summary{"allocs/op": tightInt(1)})
	if Compare(oldB, newB).OK() {
		t.Fatal("0→1 allocs passed the gate")
	}
}

func tightInt(v float64) Summary {
	return Summary{N: 5, Median: v, Q1: v, Q3: v, Min: v, Max: v}
}

func TestCompareHigherIsBetterThroughput(t *testing.T) {
	oldB := fixture("BenchmarkCoupled", map[string]Summary{"tau_simdays_per_day": tight(10)})
	newB := fixture("BenchmarkCoupled", map[string]Summary{"tau_simdays_per_day": tight(5)})
	rep := Compare(oldB, newB)
	if rep.OK() {
		t.Fatal("halved throughput passed the gate")
	}
	// A throughput gain is an improvement, not a regression.
	rep = Compare(newB, oldB)
	if !rep.OK() || len(rep.Improvements) != 1 {
		t.Fatalf("doubling throughput: OK=%v improvements=%+v", rep.OK(), rep.Improvements)
	}
}

func TestCompareInformationalMetricsNeverGate(t *testing.T) {
	oldB := fixture("BenchmarkTable1", map[string]Summary{"taustar_icon": tight(69)})
	newB := fixture("BenchmarkTable1", map[string]Summary{"taustar_icon": tight(1)})
	if rep := Compare(oldB, newB); !rep.OK() {
		t.Fatalf("informational metric gated: %+v", rep.Regressions)
	}
}

func TestCompareMissingBenchmarkFailsGate(t *testing.T) {
	oldB := fixture("BenchmarkGone", map[string]Summary{"ns/op": tight(1e6)})
	newB := &Baseline{Schema: SchemaVersion, Host: oldB.Host,
		Benchmarks: map[string]map[string]Summary{}}
	rep := Compare(oldB, newB)
	if rep.OK() || len(rep.Missing) != 1 {
		t.Fatalf("dropped benchmark passed the gate: %+v", rep)
	}
}

// TestCompareNewMetricsReported: a benchmark or metric the old baseline
// never recorded cannot be gated relatively, but it must not vanish into
// a silent pass — the report names it as recorded for the first time,
// without failing the gate.
func TestCompareNewMetricsReported(t *testing.T) {
	oldB := fixture("BenchmarkOld", map[string]Summary{"ns/op": tight(1e6)})
	newB := fixture("BenchmarkOld", map[string]Summary{
		"ns/op":             tight(1e6),
		"overlap_speedup_x": tight(1.3),
	})
	newB.Benchmarks["BenchmarkBrandNew"] = map[string]Summary{"ns/op": tight(5e5)}
	rep := Compare(oldB, newB)
	if !rep.OK() {
		t.Fatalf("new entries failed the gate: %+v", rep)
	}
	want := []string{"BenchmarkBrandNew", "BenchmarkOld [overlap_speedup_x]"}
	if len(rep.New) != len(want) {
		t.Fatalf("New = %v, want %v", rep.New, want)
	}
	for i, n := range want {
		if rep.New[i] != n {
			t.Errorf("New[%d] = %q, want %q", i, rep.New[i], n)
		}
	}
	if txt := rep.Format(); !strings.Contains(txt, "new metric recorded: BenchmarkBrandNew") ||
		!strings.Contains(txt, "new metric recorded: BenchmarkOld [overlap_speedup_x]") {
		t.Errorf("report text lacks new-metric lines:\n%s", txt)
	}
}

func TestCompareHostMismatchNoted(t *testing.T) {
	oldB := fixture("BenchmarkX", map[string]Summary{"ns/op": tight(1e6)})
	newB := fixture("BenchmarkX", map[string]Summary{"ns/op": tight(1e6)})
	newB.Host.NumCPU = 128
	rep := Compare(oldB, newB)
	if !rep.HostMismatch {
		t.Error("host mismatch not detected")
	}
	if !rep.OK() {
		t.Error("host mismatch alone must not fail the gate")
	}
}
