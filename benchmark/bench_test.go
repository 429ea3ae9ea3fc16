package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// spec mirrors the fields of BENCHMARK.json the test reads.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []specMetric            `json:"end_to_end"`
	PerLayer  []specMetric            `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

// smokeSizes runs every workload on R2B1 with three measured operations.
func smokeSizes(trace bool) sizes {
	sz := sizes{seconds: 0.001, minOps: 3, setups: 2, warmup: 1, serialOps: 2,
		isoReps: 2, micro: 200, coupledLevel: 1, cgLevel: 1}
	if trace {
		sz.setups = 1
	}
	return sz
}

// isZero reports an exact (signed) zero, the value of an unset metric.
func isZero(v float64) bool { return math.Float64bits(v)<<1 == 0 }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestSmokeEmitsDeclaredMetrics holds BENCHMARK.json and the program
// together: every workload, at smoke scale, passes its correctness checks
// and emits exactly the metric set the JSON declares for that kind of run —
// each name once, with the declared unit and a finite value, nothing
// undeclared. End-to-end metrics are never zero; every per-layer metric is
// non-zero on at least one workload, so none is declared and forgotten.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	moved := map[string]bool{}
	for _, w := range sp.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q of BENCHMARK.json is not in the program", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			b := newBench()
			run(b, runCfg{seed: 7, trace: trace, tmp: t.TempDir(), sz: smokeSizes(trace), out: io.Discard})
			res := b.finish(trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, b.failures)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			seen := map[string]bool{}
			for _, m := range want {
				if seen[m.Name] {
					t.Errorf("BENCHMARK.json declares %q twice", m.Name)
				}
				seen[m.Name] = true
				if !metricName.MatchString(m.Name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				}
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %q was not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %q has unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %q is not finite", w.Name, trace, m.Name)
				case !trace && isZero(got.Value):
					t.Errorf("%s: end-to-end metric %q is zero", w.Name, m.Name)
				}
				if !isZero(got.Value) {
					moved[m.Name] = true
				}
			}
			for name := range res.Metrics {
				if !seen[name] {
					t.Errorf("%s trace=%v: emitted %q, which BENCHMARK.json does not declare", w.Name, trace, name)
				}
			}
		}
	}
	// The device-model wait is zero whenever the simulated GPU side is the
	// slower one, as it is in all three coupled configurations.
	moved["exec.sim_atm_wait_frac"] = true
	for _, m := range sp.PerLayer {
		if !moved[m.Name] {
			t.Errorf("per-layer metric %q is zero on every workload", m.Name)
		}
	}
}

// TestSelfTimeSubtractsTheUnionOfChildren: two overlapping children on
// different lanes cover their union, not their sum.
func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	r := &recorder{spans: []span{
		{name: "window", start: 0, end: msd(100), parent: -1},
		{name: "gpu_side", start: 0, end: msd(90), parent: 0},
		{name: "cpu_side", start: 0, end: msd(40), parent: 0},
		{name: "physics", start: 0, end: msd(60), parent: 1},
		{name: "land:rivers", start: msd(70), end: msd(90), parent: 1},
	}}
	self := r.selfTimes()
	for id, want := range []time.Duration{msd(10), msd(10), msd(40), msd(60), msd(20)} {
		if self[id] != want {
			t.Errorf("self time of %s = %v, want %v", r.spans[id].name, self[id], want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}
