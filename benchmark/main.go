// Command benchmark is the repository benchmark: one process runs one
// workload from one seed and prints every metric of BENCHMARK.json by
// name with its unit, after checking that the model's outputs are
// correct. README.md in this directory defines the workloads and metrics;
// BENCHMARK.json at the repository root is the contract the driver reads.
//
//	bash benchmark/run.sh --workload atm_bound --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with no
// recorder attached; with --trace 1 it attaches the benchmark's own span
// recorder, times every layer in isolation and prints the per-layer
// metrics. The last line of standard output is one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// sizes scales a run. The defaults are the reference scale of README.md;
// the smoke test shrinks every field so all four workloads finish in
// seconds while still emitting the full metric set.
type sizes struct {
	seconds      float64 // length of the measured loop (the driver's --seconds)
	minOps       int     // windows, cycles or solve pairs measured at least
	setups       int     // set-up repetitions; setup_s is their median
	warmup       int     // warm-up windows per set-up
	serialOps    int     // windows of the single-threaded reference run
	isoReps      int     // repetitions of each whole-step isolation call
	micro        int     // iterations of the shortest isolation loop; the others scale from it
	coupledLevel int     // grid level of the three coupled workloads
	cgLevel      int     // grid level of dist_cg
}

// refSizes is the reference scale. Workers follows the issue: min(nproc, 4),
// never more threads than cores.
func refSizes(seconds float64, trace bool) sizes {
	sz := sizes{seconds: seconds, minOps: 10, setups: 3, warmup: 5, serialOps: 3,
		isoReps: 7, micro: 100000, coupledLevel: 3, cgLevel: 5}
	if trace {
		// One set-up leaves room for a longer single-threaded reference,
		// whose window times also feed sched.parallel_speedup_x.
		sz.setups, sz.serialOps = 1, 8
	}
	return sz
}

func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runCfg is what one workload run receives. The seed only ever reaches
// the input generators in inputs.go.
type runCfg struct {
	seed     int64
	trace    bool
	traceOut string
	tmp      string // scratch directory for checkpoint stores and sockets
	sz       sizes
	out      io.Writer
}

// workloads maps the names of BENCHMARK.json to their run functions.
var workloads = map[string]func(b *bench, cfg runCfg){
	"atm_bound":   func(b *bench, cfg runCfg) { runCoupled(b, cfg, "atm_bound") },
	"ocean_bound": func(b *bench, cfg runCfg) { runCoupled(b, cfg, "ocean_bound") },
	"ckpt_cycle":  func(b *bench, cfg runCfg) { runCoupled(b, cfg, "ckpt_cycle") },
	"dist_cg":     runDistCG,
}

func workloadNames() []string { return slices.Sorted(maps.Keys(workloads)) }

// bench collects the metrics, operation counts and check failures of one
// run.
type bench struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
}

func newBench() *bench { return &bench{metrics: map[string]float64{}} }

// set records a metric value; the name must be declared in metrics.go.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// op counts one operation (a window, a checkpoint, a restore or a solve)
// and, when err is non-nil, its failure.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.fail("%s: %v", what, err)
	}
}

// fail records a failed operation or a broken correctness check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish turns the collected values into the result for the declared
// metric list. A declared end-to-end metric the run did not set, an
// undeclared one it did set, and any non-finite value are benchmark
// failures; a per-layer metric the workload does not exercise reads 0.
func (b *bench) finish(trace bool) result {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	declared := map[string]bool{}
	for _, d := range endToEnd {
		declared[d.name] = true
	}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, name := range slices.Sorted(maps.Keys(b.metrics)) {
		if !declared[name] {
			b.fail("metric %q is not declared in metrics.go", name)
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := b.metrics[d.name]
		if !ok && !trace {
			b.fail("end-to-end metric %q was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %q is not finite", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if b.attempted < 1 {
		b.attempted = 1
		b.fail("no operation was attempted")
	}
	if b.failed > b.attempted {
		b.failed = b.attempted
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	return res
}

// report prints the text report: every metric of the result by name with
// its unit, then the operation counts and any failures.
func report(out io.Writer, workload string, res result, b *bench) {
	fmt.Fprintf(out, "\n== %s ==\n", workload)
	for _, n := range slices.Sorted(maps.Keys(res.Metrics)) {
		m := res.Metrics[n]
		fmt.Fprintf(out, "%-42s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "ops_total %d\nops_failed %d\n", res.Attempted, res.Failed)
	for _, f := range b.failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "one of: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", 16, "length of the measured loop")
		traceN   = flag.Int("trace", 0, "0: end-to-end metrics, recorder off; 1: per-layer metrics, recorder on")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the recorded spans as Chrome trace-event JSON to this file")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %s), -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "icobench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	trace := *traceN == 1
	b := newBench()
	run(b, runCfg{seed: *seed, trace: trace, traceOut: *traceOut, tmp: tmp,
		sz: refSizes(*seconds, trace), out: os.Stdout})
	res := b.finish(trace)
	os.RemoveAll(tmp)
	report(os.Stdout, *workload, res, b)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}
