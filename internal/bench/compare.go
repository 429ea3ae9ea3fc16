package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Direction says which way a metric is allowed to move.
type Direction int

const (
	// LowerIsBetter gates growth (ns/op, B/op, allocs/op).
	LowerIsBetter Direction = iota
	// HigherIsBetter gates shrinkage (throughput: tau, cells/s, MB/s).
	HigherIsBetter
	// Informational metrics are recorded and trended but never gate:
	// the calibrated model's deterministic projections change only when
	// the model changes, which is a deliberate act that re-records the
	// baseline, not a perf regression.
	Informational
)

// ScaleKind says how a metric responds to overall machine speed, which
// decides whether the host-speed calibration ratio is divided out,
// multiplied in, or ignored.
type ScaleKind int

const (
	// Unscaled metrics are machine-independent counts (B/op, allocs/op).
	Unscaled ScaleKind = iota
	// TimeScaled metrics grow on a slower machine (ns/op).
	TimeScaled
	// ThroughputScaled metrics shrink on a slower machine (MB/s, tau).
	ThroughputScaled
)

// Policy is the per-metric gating rule: the allowed relative drift of
// the median in the bad direction. The gate is noise-aware: on top of
// the relative tolerance, the medians must differ by more than the
// larger of the two runs' interquartile spreads before a metric flags,
// so a wide-variance benchmark can't flap the gate.
type Policy struct {
	Direction Direction
	Tolerance float64 // relative, e.g. 0.10 = 10%
	// MinAbs is an absolute floor on the old median: below it the
	// metric is tracked but not gated. A 20 µs table-generation
	// benchmark measured one-shot on a loaded runner swings tens of
	// percent from pure scheduling noise; the repo's hot kernels
	// (coupled step, land graphs, solver) all sit well above the floor.
	MinAbs float64
	// Scale selects the host-speed normalization for the metric.
	Scale ScaleKind
	// Floor is an absolute minimum the NEW run's median must clear
	// (HigherIsBetter metrics only, 0 = none). Unlike the relative
	// tolerances it needs no old baseline: it encodes a contract the
	// code must meet on every run that reports the metric — e.g. the
	// worker pool's ≥1.8× dycore speedup at 4 workers. Benchmarks that
	// skip (too few cores) simply don't report the metric, so the floor
	// gates on capable runners and stays silent elsewhere.
	Floor float64
}

// DefaultPolicies gates the standard testing metrics: wall time may
// drift 10% (on benchmarks ≥ 100 µs), bytes 10%, allocation *count*
// not at all — an alloc-count increase on a hot kernel is a code
// change, never noise.
var DefaultPolicies = map[string]Policy{
	"ns/op":     {Direction: LowerIsBetter, Tolerance: 0.10, MinAbs: 1e5, Scale: TimeScaled},
	"B/op":      {Direction: LowerIsBetter, Tolerance: 0.10},
	"allocs/op": {Direction: LowerIsBetter, Tolerance: 0.00},
	"MB/s":      {Direction: HigherIsBetter, Tolerance: 0.10, Scale: ThroughputScaled},
}

// GatedCustomMetrics are the repo's own wall-clock-derived throughput
// metrics (stable names reported via b.ReportMetric in bench_test.go);
// they gate like MB/s but with a wider band because a coupled-model
// step is noisier than a microbenchmark.
var GatedCustomMetrics = map[string]Policy{
	"tau_simdays_per_day": {Direction: HigherIsBetter, Tolerance: 0.15, Scale: ThroughputScaled},
	"cells_per_sec":       {Direction: HigherIsBetter, Tolerance: 0.15, Scale: ThroughputScaled},
	"tau_simulated":       {Direction: HigherIsBetter, Tolerance: 0.15, Scale: ThroughputScaled},
	// trace_overhead_frac is the disabled-tracer cost of a coupled window
	// as a fraction of the window's wall time (BenchmarkStepWindow). The
	// contract is "< 1%": MinAbs keeps values under 0.01 ungated (they are
	// pure noise at that size) while a regression past the floor gates.
	"trace_overhead_frac": {Direction: LowerIsBetter, Tolerance: 0.50, MinAbs: 0.01},
	// parallel_speedup_x is the wall-time ratio workers=1 / workers=4 of
	// a hot kernel path (reported by the *Speedup benchmarks, which skip
	// on machines with fewer than 4 cores). A ratio is already
	// machine-normalized, so it is Unscaled; the absolute floor is the
	// PR's acceptance contract for the worker pool.
	"parallel_speedup_x": {Direction: HigherIsBetter, Tolerance: 0.15, Floor: 1.8},
	// overlap_speedup_x is the wall-time ratio sequential / overlapped of
	// the coupled window (BenchmarkStepWindowOverlapSpeedup, skips under 4
	// cores): the functional-parallelism acceptance contract — the
	// ocean+BGC side must genuinely execute under the atmosphere window.
	"overlap_speedup_x": {Direction: HigherIsBetter, Tolerance: 0.15, Floor: 1.2},
	// atm_wait_frac is the fraction of atmosphere device time spent
	// waiting at coupling windows (the paper's §6.3 "→ 0" story). MinAbs
	// keeps the healthy near-zero regime ungated; a config or scheduling
	// regression that makes the atmosphere wait a twentieth of its time
	// gates.
	"atm_wait_frac": {Direction: LowerIsBetter, Tolerance: 0.50, MinAbs: 0.05},
	// durable_ckpt_ns_per_window is the unhidden per-window cost of the
	// durable checkpoint lane (BenchmarkDurableCheckpointWindow): the join
	// of the previous overlapped write plus snapshot clone and dispatch.
	// Disk latency is jittery, so the band is wide and sub-0.5 ms medians
	// stay ungated; losing the overlap entirely (the join absorbing the
	// full fsynced write) gates.
	"durable_ckpt_ns_per_window": {Direction: LowerIsBetter, Tolerance: 0.50, MinAbs: 5e5, Scale: TimeScaled},
	// ckpt_bytes_per_window is the durable payload published per window —
	// a machine-independent count, tight band: snapshot bloat is a code
	// change, not noise. MinAbs keeps sub-64KiB test payloads ungated.
	"ckpt_bytes_per_window": {Direction: LowerIsBetter, Tolerance: 0.10, MinAbs: 1 << 16},
	// halo_bytes_per_window is the rank-summed halo traffic of one
	// distributed barotropic solve (BenchmarkOceanSolverScaling at 4
	// ranks; one solve per coupling window at the defaults). A structural
	// count of partition boundary × CG iterations, not a timing — growth
	// means a fatter seam or an iteration regression, so the band is
	// tight. MinAbs leaves sub-4KiB toy partitions ungated.
	"halo_bytes_per_window": {Direction: LowerIsBetter, Tolerance: 0.10, MinAbs: 1 << 12},
	// halo_overlap_frac is the fraction of rank 0's owned wet cells whose
	// CG matrix row touches no halo cell — the interior the overlapped
	// exchange (HaloExchanger.Start/Finish) lets it compute while
	// boundary messages are in flight. Dropping below the floor means
	// the partition stopped hiding its communication.
	"halo_overlap_frac": {Direction: HigherIsBetter, Tolerance: 0.10, Floor: 0.5},
}

// PolicyFor resolves the gating rule for a metric unit.
func PolicyFor(unit string) Policy {
	if p, ok := DefaultPolicies[unit]; ok {
		return p
	}
	if p, ok := GatedCustomMetrics[unit]; ok {
		return p
	}
	return Policy{Direction: Informational}
}

// Regression is one metric that moved beyond its tolerance in the bad
// direction between two baselines.
type Regression struct {
	Benchmark string
	Metric    string
	Old, New  Summary
	// Change is the signed relative move of the median, positive = grew.
	Change    float64
	Tolerance float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.4g → %.4g (%+.1f%%, tolerance ±%.0f%%)",
		r.Benchmark, r.Metric, r.Old.Median, r.New.Median,
		100*r.Change, 100*r.Tolerance)
}

// Report is the outcome of comparing a new baseline against an old one.
type Report struct {
	Regressions []Regression
	// Improvements are metrics that moved beyond tolerance in the good
	// direction (reported so wins are visible, never gated on).
	Improvements []Regression
	// Missing are benchmarks present in the old baseline but absent
	// from the new one — a silently dropped benchmark must fail the
	// gate, otherwise deleting a slow benchmark "fixes" its regression.
	Missing []string
	// FloorViolations are metrics in the NEW baseline whose median falls
	// short of their policy's absolute Floor. They gate independently of
	// the old baseline, so a floored metric fails even on its first
	// recorded appearance.
	FloorViolations []Regression
	// New are benchmarks (or single metrics, "bench [unit]") present in
	// the new baseline but absent from the old one. They cannot be gated
	// relatively — there is nothing to compare against — but silence here
	// would read as "compared and fine", so they are reported explicitly
	// as recorded-for-the-first-time. Floors still apply via floorScan.
	New []string
	// HostMismatch is set when the two baselines were recorded on
	// machines with different OS/arch/CPU-count fingerprints.
	HostMismatch bool
	// HostSpeed is the calibration ratio newCalib/oldCalib applied to
	// time and throughput metrics before gating (1 when either baseline
	// lacks a calibration). >1 means the new run's machine was slower.
	HostSpeed float64
}

// OK reports whether the gate passes.
func (r Report) OK() bool {
	return len(r.Regressions) == 0 && len(r.Missing) == 0 && len(r.FloorViolations) == 0
}

// Format renders the report as the text benchgate prints.
func (r Report) Format() string {
	var b strings.Builder
	if r.HostMismatch {
		b.WriteString("note: baselines were recorded on different machines; " +
			"treat absolute comparisons with suspicion\n")
	}
	if math.Abs(r.HostSpeed-1) > 0.02 {
		fmt.Fprintf(&b, "note: host-speed calibration ×%.3f divided out of "+
			"time/throughput metrics (new machine state %s)\n",
			r.HostSpeed, map[bool]string{true: "slower", false: "faster"}[r.HostSpeed > 1])
	}
	for _, m := range r.Missing {
		fmt.Fprintf(&b, "MISSING    %s (in old baseline, absent from new)\n", m)
	}
	for _, reg := range r.Regressions {
		fmt.Fprintf(&b, "REGRESSION %s\n", reg)
	}
	for _, fv := range r.FloorViolations {
		fmt.Fprintf(&b, "BELOW-FLOOR %s %s: %.4g < required %.4g\n",
			fv.Benchmark, fv.Metric, fv.New.Median, fv.Tolerance)
	}
	for _, imp := range r.Improvements {
		fmt.Fprintf(&b, "improved   %s\n", imp)
	}
	for _, n := range r.New {
		fmt.Fprintf(&b, "new metric recorded: %s (absent from old baseline, "+
			"gated from the next re-record)\n", n)
	}
	if r.OK() {
		b.WriteString("benchgate: OK\n")
	}
	return b.String()
}

// Compare gates newB against oldB under the default policies. Only
// benchmarks present in both are compared metric-by-metric; benchmarks
// that disappeared are reported as Missing, new benchmarks pass freely
// (they will be gated once they enter a recorded baseline).
func Compare(oldB, newB *Baseline) Report {
	var rep Report
	rep.HostMismatch = !oldB.Host.Equal(newB.Host)
	rep.HostSpeed = 1
	if oldB.CalibNs > 0 && newB.CalibNs > 0 {
		// Clamp the correction: beyond 4× in either direction something
		// other than ambient load changed, and silently normalizing it
		// away would hide more than it reveals.
		rep.HostSpeed = math.Min(4, math.Max(0.25, newB.CalibNs/oldB.CalibNs))
	}
	names := make([]string, 0, len(oldB.Benchmarks))
	for name := range oldB.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldMetrics := oldB.Benchmarks[name]
		newMetrics, ok := newB.Benchmarks[name]
		if !ok {
			rep.Missing = append(rep.Missing, name)
			continue
		}
		units := make([]string, 0, len(oldMetrics))
		for unit := range oldMetrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			o := oldMetrics[unit]
			n, ok := newMetrics[unit]
			if !ok {
				// A metric (not the whole benchmark) vanishing means the
				// benchmark's reporting changed; surface it like a missing
				// benchmark so renames force a baseline re-record.
				rep.Missing = append(rep.Missing, name+" ["+unit+"]")
				continue
			}
			pol := PolicyFor(unit)
			if pol.Direction == Informational {
				continue
			}
			verdict(&rep, name, unit, o, normalize(n, pol.Scale, rep.HostSpeed), pol)
		}
	}
	rep.New = newEntries(oldB, newB)
	rep.FloorViolations = floorScan(newB)
	return rep
}

// newEntries lists benchmarks and metrics of newB that oldB has never
// recorded. The old-baseline iteration in Compare cannot see them; left
// unmentioned they would pass silently, which reads as "compared and
// fine" when nothing was compared at all.
func newEntries(oldB, newB *Baseline) []string {
	var out []string
	names := make([]string, 0, len(newB.Benchmarks))
	for name := range newB.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldMetrics, ok := oldB.Benchmarks[name]
		if !ok {
			out = append(out, name)
			continue
		}
		units := make([]string, 0, len(newB.Benchmarks[name]))
		for unit := range newB.Benchmarks[name] {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if _, ok := oldMetrics[unit]; !ok {
				out = append(out, name+" ["+unit+"]")
			}
		}
	}
	return out
}

// floorScan checks every metric of the new baseline against its policy's
// absolute Floor. This pass deliberately ignores the old baseline: a
// floored metric is a standing contract, not a relative comparison, and
// must hold the first time it is ever recorded. Host-speed normalization
// does not apply — floors are only set on Unscaled ratio metrics.
func floorScan(newB *Baseline) []Regression {
	var out []Regression
	names := make([]string, 0, len(newB.Benchmarks))
	for name := range newB.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metrics := newB.Benchmarks[name]
		units := make([]string, 0, len(metrics))
		for unit := range metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			pol := PolicyFor(unit)
			if pol.Floor <= 0 || pol.Direction != HigherIsBetter {
				continue
			}
			if n := metrics[unit]; n.Median < pol.Floor {
				out = append(out, Regression{
					Benchmark: name, Metric: unit, New: n,
					Change:    (n.Median - pol.Floor) / pol.Floor,
					Tolerance: pol.Floor,
				})
			}
		}
	}
	return out
}

// normalize rescales a new-run summary into the old run's machine-speed
// frame: time metrics from a machine running `speed`× slower are
// divided by it, throughput metrics multiplied. Counts pass through.
func normalize(s Summary, kind ScaleKind, speed float64) Summary {
	var f float64
	switch {
	case speed == 1 || kind == Unscaled:
		return s
	case kind == TimeScaled:
		f = 1 / speed
	default: // ThroughputScaled
		f = speed
	}
	s.Median *= f
	s.Q1 *= f
	s.Q3 *= f
	s.Min *= f
	s.Max *= f
	return s
}

// verdict classifies one metric move under its policy.
func verdict(rep *Report, name, unit string, o, n Summary, pol Policy) {
	if math.Abs(o.Median) < pol.MinAbs {
		return
	}
	if o.Median == 0 {
		// A zero baseline (e.g. 0 allocs/op) gates absolutely: any
		// growth of a lower-is-better metric is a regression.
		if pol.Direction == LowerIsBetter && n.Median > 0 {
			rep.Regressions = append(rep.Regressions, Regression{
				Benchmark: name, Metric: unit, Old: o, New: n,
				Change: math.Inf(1), Tolerance: pol.Tolerance,
			})
		}
		return
	}
	change := (n.Median - o.Median) / math.Abs(o.Median)
	bad := change > pol.Tolerance
	good := change < -pol.Tolerance
	if pol.Direction == HigherIsBetter {
		bad, good = change < -pol.Tolerance, change > pol.Tolerance
	}
	// Noise guard: beyond the relative tolerance, the two runs' sample
	// ranges must not overlap — every new sample has to lie outside the
	// full spread of the old ones before a move counts as real. On a
	// shared runner, scheduling and disk contention inflate individual
	// runs by tens of percent, but one quiet run out of N is enough to
	// bring the ranges back into contact; a genuine regression shifts
	// even the best-case run clear of the old worst case. Deterministic
	// metrics (zero spread) reduce to a pure median comparison.
	if n.Min <= o.Max && o.Min <= n.Max {
		return
	}
	r := Regression{Benchmark: name, Metric: unit, Old: o, New: n,
		Change: change, Tolerance: pol.Tolerance}
	switch {
	case bad:
		rep.Regressions = append(rep.Regressions, r)
	case good:
		rep.Improvements = append(rep.Improvements, r)
	}
}
