package analysis

// Fixture tests for the determinism-and-concurrency analyzers
// (blockshare, detreduce, maporder, nondetseed, kernelcapture). Each
// analyzer gets at least one true positive, one near-miss negative
// exercising the exact idiom the provenance machinery must accept, and
// the icovet:ignore escape hatch. The snippets type-check against
// fabricated skeletons of the packages they import (schedPkg and
// friends below), so the tests run offline like the rest of the suite.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// schedPkg fabricates icoearth/internal/sched's dispatch surface so
// kernel snippets type-check without loading the real package.
func schedPkg() *types.Package {
	pkg := types.NewPackage("icoearth/internal/sched", "sched")
	intT := types.Typ[types.Int]
	f64 := types.Typ[types.Float64]
	v := func(name string, t types.Type) *types.Var {
		return types.NewVar(token.NoPos, pkg, name, t)
	}
	body2 := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(v("lo", intT), v("hi", intT)), nil, false)
	body3 := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(v("slot", intT), v("lo", intT), v("hi", intT)), nil, false)
	partial := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(v("lo", intT), v("hi", intT)), types.NewTuple(v("", f64)), false)
	fn := func(name string, params ...*types.Var) {
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), nil, false)
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	fn("Run", v("n", intT), v("body", body2))
	fn("RunIndexed", v("n", intT), v("body", body3))
	fn("RunWidth", v("n", intT), v("width", intT), v("body", body2))
	reduceSig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(v("n", intT), v("partial", partial)), types.NewTuple(v("", f64)), false)
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "ReduceSum", reduceSig))
	pkg.MarkComplete()
	return pkg
}

// timePkg fabricates time.Time/Now/Since.
func timePkg() *types.Package {
	pkg := types.NewPackage("time", "time")
	timeName := types.NewTypeName(token.NoPos, pkg, "Time", nil)
	timeT := types.NewNamed(timeName, types.NewStruct(nil, nil), nil)
	durName := types.NewTypeName(token.NoPos, pkg, "Duration", nil)
	durT := types.NewNamed(durName, types.Typ[types.Int64], nil)
	pkg.Scope().Insert(timeName)
	pkg.Scope().Insert(durName)
	now := types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, pkg, "", timeT)), false)
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Now", now))
	since := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, pkg, "t", timeT)),
		types.NewTuple(types.NewVar(token.NoPos, pkg, "", durT)), false)
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Since", since))
	pkg.MarkComplete()
	return pkg
}

// randPkg fabricates math/rand: the global-source Float64/Intn plus the
// sanctioned NewSource/New/(*Rand).Float64 construction path.
func randPkg() *types.Package {
	pkg := types.NewPackage("math/rand", "rand")
	f64 := types.Typ[types.Float64]
	intT := types.Typ[types.Int]
	srcName := types.NewTypeName(token.NoPos, pkg, "Source", nil)
	srcT := types.NewNamed(srcName, types.NewInterfaceType(nil, nil), nil)
	randName := types.NewTypeName(token.NoPos, pkg, "Rand", nil)
	randT := types.NewNamed(randName, types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(srcName)
	pkg.Scope().Insert(randName)
	recv := types.NewVar(token.NoPos, pkg, "r", types.NewPointer(randT))
	randT.AddMethod(types.NewFunc(token.NoPos, pkg, "Float64",
		types.NewSignatureType(recv, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", f64)), false)))
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Float64",
		types.NewSignatureType(nil, nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", f64)), false)))
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Intn",
		types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "n", intT)),
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", intT)), false)))
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "NewSource",
		types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "seed", types.Typ[types.Int64])),
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", srcT)), false)))
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "New",
		types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "src", srcT)),
			types.NewTuple(types.NewVar(token.NoPos, pkg, "", types.NewPointer(randT))), false)))
	pkg.MarkComplete()
	return pkg
}

// fmtPkg fabricates fmt.Println/Sprintf.
func fmtPkg() *types.Package {
	pkg := types.NewPackage("fmt", "fmt")
	anySlice := types.NewSlice(types.NewInterfaceType(nil, nil))
	errT := types.Universe.Lookup("error").Type()
	println := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, pkg, "a", anySlice)),
		types.NewTuple(
			types.NewVar(token.NoPos, pkg, "", types.Typ[types.Int]),
			types.NewVar(token.NoPos, pkg, "", errT)), true)
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Println", println))
	sprintf := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(
			types.NewVar(token.NoPos, pkg, "format", types.Typ[types.String]),
			types.NewVar(token.NoPos, pkg, "a", anySlice)),
		types.NewTuple(types.NewVar(token.NoPos, pkg, "", types.Typ[types.String])), true)
	pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, "Sprintf", sprintf))
	pkg.MarkComplete()
	return pkg
}

// sortPkg fabricates sort.Strings/Ints.
func sortPkg() *types.Package {
	pkg := types.NewPackage("sort", "sort")
	for name, elem := range map[string]types.Type{
		"Strings": types.Typ[types.String], "Ints": types.Typ[types.Int],
	} {
		sig := types.NewSignatureType(nil, nil, nil,
			types.NewTuple(types.NewVar(token.NoPos, pkg, "x", types.NewSlice(elem))), nil, false)
		pkg.Scope().Insert(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	pkg.MarkComplete()
	return pkg
}

// --- blockshare -------------------------------------------------------

func TestBlockShareFlagsWholeRangeWrite(t *testing.T) {
	diags := checkSrc(t, BlockShare, "icoearth/internal/atmos", "dycore.go", `
package atmos

import "icoearth/internal/sched"

type D struct {
	out []float64
	n   int
}

func (d *D) step() {
	sched.Run(d.n, func(lo, hi int) {
		for i := 0; i < d.n; i++ { // whole range, not this block
			d.out[i] = 1
		}
	})
}
`)
	wantFindings(t, diags, "index not derived from the block range")
}

func TestBlockShareAcceptsDerivedIdioms(t *testing.T) {
	// The three idioms the provenance fixpoint must accept without
	// annotations: block-derived loop counters, per-slot stripe slices,
	// and helpers that receive the block range as arguments.
	diags := checkSrc(t, BlockShare, "icoearth/internal/ocean", "step.go", `
package ocean

import "icoearth/internal/sched"

type D struct {
	out, zeta, scratch []float64
	n                  int
}

func (d *D) step() {
	sched.Run(d.n, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			d.out[c] = d.zeta[c] // derived counter
		}
	})
	sched.RunIndexed(d.n, func(slot, lo, hi int) {
		z := d.scratch[slot*4 : slot*4+4] // per-slot stripe
		for i := range z {
			z[i] = 0
		}
		fill(d.out, lo, hi) // block range forwarded to a helper
	})
}

func fill(q []float64, lo, hi int) {
	for c := lo; c < hi; c++ {
		q[c] = 2
	}
}
`)
	if len(diags) != 0 {
		t.Errorf("block-derived idioms flagged: %v", diags)
	}
}

func TestBlockShareFollowsCallsIntoHelpers(t *testing.T) {
	// The callgraph-lite must catch a helper that ignores the block
	// range it was handed.
	diags := checkSrc(t, BlockShare, "icoearth/internal/ocean", "step.go", `
package ocean

import "icoearth/internal/sched"

type D struct {
	out []float64
	n   int
}

func (d *D) step() {
	sched.Run(d.n, func(lo, hi int) {
		smearAll(d.out, lo, hi)
	})
}

func smearAll(q []float64, lo, hi int) {
	for i := range q { // ignores [lo,hi)
		q[i] = 0
	}
}
`)
	wantFindings(t, diags, "index not derived from the block range")
}

func TestBlockShareIgnoreSuppression(t *testing.T) {
	diags := checkSrc(t, BlockShare, "icoearth/internal/atmos", "dycore.go", `
package atmos

import "icoearth/internal/sched"

type D struct {
	out []float64
	n   int
}

func (d *D) step() {
	sched.Run(d.n, func(lo, hi int) {
		d.out[0] = 1 //icovet:ignore blockshare single-writer cell justified here
	})
}
`)
	if len(diags) != 0 {
		t.Errorf("ignored finding survived: %v", diags)
	}
}

// --- detreduce --------------------------------------------------------

func TestDetReduceFlagsSharedAccumulation(t *testing.T) {
	diags := checkSrc(t, DetReduce, "icoearth/internal/ocean", "solver.go", `
package ocean

import "icoearth/internal/sched"

type A struct {
	sum  float64
	vals []float64
	n    int
}

func (a *A) bad() {
	sched.Run(a.n, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			a.sum += a.vals[c]
		}
	})
}
`)
	wantFindings(t, diags, "float accumulation into shared a.sum")
}

func TestDetReduceAcceptsLocalPartials(t *testing.T) {
	// The fused sweep+dot idiom: accumulate into a body-local, return it
	// as the block partial.
	diags := checkSrc(t, DetReduce, "icoearth/internal/ocean", "solver.go", `
package ocean

import "icoearth/internal/sched"

type A struct {
	vals []float64
	n    int
}

func (a *A) good() float64 {
	return sched.ReduceSum(a.n, func(lo, hi int) float64 {
		acc := 0.0
		for c := lo; c < hi; c++ {
			acc += a.vals[c]
		}
		return acc
	})
}
`)
	if len(diags) != 0 {
		t.Errorf("local partial accumulation flagged: %v", diags)
	}
}

// --- maporder ---------------------------------------------------------

func TestMapOrderFlagsOutputAndFloatAccum(t *testing.T) {
	diags := checkSrc(t, MapOrder, "icoearth/internal/diag", "diag.go", `
package diag

import "fmt"

func dump(m map[string]float64) float64 {
	total := 0.0
	for k, v := range m {
		fmt.Println(k)
		total += v
	}
	return total
}
`)
	wantFindings(t, diags,
		"formatted output inside a map range",
		"float accumulation into total")
}

func TestMapOrderFlagsEffectCallWithRangeValues(t *testing.T) {
	diags := checkSrc(t, MapOrder, "icoearth/internal/coupler", "snapshot.go", `
package coupler

type sink struct{}

func (s *sink) Add(name string, v float64) {}

func feed(s *sink, m map[string]float64) {
	for k, v := range m {
		s.Add(k, v)
	}
}
`)
	wantFindings(t, diags, "receives map-iteration values in randomized order")
}

func TestMapOrderAcceptsOrderFreeBodies(t *testing.T) {
	// Collect-then-sort, integer accumulation, re-keying into a map,
	// flag sets and max reductions are all order-free.
	diags := checkSrc(t, MapOrder, "icoearth/internal/exec", "device.go", `
package exec

import "sort"

func clean(m map[string]int, w map[string]bool) ([]string, int, int, bool) {
	var keys []string
	n, max := 0, 0
	seen := false
	for k, v := range m {
		keys = append(keys, k)
		n += v
		w[k] = true
		seen = true
		if v > max {
			max = v
		}
	}
	sort.Strings(keys)
	return keys, n, max, seen
}
`)
	if len(diags) != 0 {
		t.Errorf("order-free map range flagged: %v", diags)
	}
}

func TestMapOrderFlagsUnsortedKeyCollection(t *testing.T) {
	diags := checkSrc(t, MapOrder, "icoearth/internal/exec", "device.go", `
package exec

func leak(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // never sorted: iteration order escapes
}
`)
	wantFindings(t, diags, "leaks iteration order")
}

// --- nondetseed -------------------------------------------------------

func TestNonDetSeedFlagsWallClockAndGlobalRand(t *testing.T) {
	diags := checkSrc(t, NonDetSeed, "icoearth/internal/coupler", "supervise.go", `
package coupler

import (
	"math/rand"
	"time"
)

func stamp() time.Time {
	jitter := rand.Float64()
	_ = jitter
	return time.Now()
}
`)
	wantFindings(t, diags,
		"rand.Float64 draws from the process-global source",
		"time.Now in a simulation package")
}

func TestNonDetSeedFlagsFunctionValueUse(t *testing.T) {
	// Storing time.Now as a value is the same wall-clock read; the
	// injected-clock seam carries the one justified ignore.
	diags := checkSrc(t, NonDetSeed, "icoearth/internal/coupler", "supervise.go", `
package coupler

import "time"

func clockSource(injected func() time.Time) func() time.Time {
	if injected != nil {
		return injected
	}
	return time.Now
}
`)
	wantFindings(t, diags, "time.Now in a simulation package")
}

func TestNonDetSeedUnflaggedCases(t *testing.T) {
	// A seeded *rand.Rand is the sanctioned pattern; measurement
	// harnesses outside the simulation packages may read wall clocks;
	// the ignore escape hatch works.
	if d := checkSrc(t, NonDetSeed, "icoearth/internal/ocean", "mixing.go", `
package ocean

import "math/rand"

func jitter(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}
`); len(d) != 0 {
		t.Errorf("seeded rng flagged: %v", d)
	}
	if d := checkSrc(t, NonDetSeed, "icoearth/internal/trace", "trace.go", `
package trace

import "time"

func wall() time.Time { return time.Now() }
`); len(d) != 0 {
		t.Errorf("measurement package flagged: %v", d)
	}
	if d := checkSrc(t, NonDetSeed, "icoearth/internal/coupler", "supervise.go", `
package coupler

import "time"

func deadline() time.Time {
	return time.Now() //icovet:ignore nondetseed watchdog is inherently wall-clock
}
`); len(d) != 0 {
		t.Errorf("ignored wall-clock read survived: %v", d)
	}
}

// --- kernelcapture ----------------------------------------------------

func TestKernelCaptureFlagsPreBoundLoopVariable(t *testing.T) {
	diags := checkSrc(t, KernelCapture, "icoearth/internal/atmos", "tracers.go", `
package atmos

import "icoearth/internal/sched"

type D struct {
	parA func(lo, hi int)
	q    [][]float64
	cur  []float64
	n    int
}

func (d *D) bind() {
	for t := 0; t < len(d.q); t++ {
		d.parA = func(lo, hi int) {
			src := d.q[t] // stale by dispatch time
			for c := lo; c < hi; c++ {
				d.cur[c] = src[c]
			}
		}
	}
}

func (d *D) step() { sched.Run(d.n, d.parA) }
`)
	wantFindings(t, diags, `captures loop variable "t"`)
}

func TestKernelCaptureFlagsMutatedBindingLocal(t *testing.T) {
	diags := checkSrc(t, KernelCapture, "icoearth/internal/atmos", "dycore.go", `
package atmos

import "icoearth/internal/sched"

type D struct {
	parA func(lo, hi int)
	cur  []float64
	n    int
}

func (d *D) bind() {
	scale := 1.0
	d.parA = func(lo, hi int) {
		for c := lo; c < hi; c++ {
			d.cur[c] *= scale
		}
	}
	scale = 2.0 // the closure silently sees this
}

func (d *D) step() { sched.Run(d.n, d.parA) }
`)
	wantFindings(t, diags, `captures "scale", which the binding function mutates after binding`)
}

func TestKernelCaptureFlagsSharedScratchWrite(t *testing.T) {
	diags := checkSrc(t, KernelCapture, "icoearth/internal/grid", "laplacian.go", `
package grid

import "icoearth/internal/sched"

type G struct {
	vals []float64
	n    int
}

func (g *G) maxVal() float64 {
	best := 0.0
	sched.Run(g.n, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			if g.vals[c] > best {
				best = g.vals[c] // every worker races on best
			}
		}
	})
	return best
}
`)
	wantFindings(t, diags, `writes captured variable "best"`)
}

func TestKernelCaptureAcceptsInlineLoopCapture(t *testing.T) {
	// An inline literal is dispatched synchronously: the loop cannot
	// advance while sched.Run executes, so capturing its variable is
	// safe (unlike the pre-bound case).
	diags := checkSrc(t, KernelCapture, "icoearth/internal/atmos", "tracers.go", `
package atmos

import "icoearth/internal/sched"

type D struct {
	q   [][]float64
	cur []float64
	n   int
}

func (d *D) transport() {
	for t := 0; t < len(d.q); t++ {
		src := d.q[t]
		sched.Run(d.n, func(lo, hi int) {
			for c := lo; c < hi; c++ {
				d.cur[c] = src[c]
			}
		})
	}
}
`)
	if len(diags) != 0 {
		t.Errorf("inline synchronous capture flagged: %v", diags)
	}
}

func TestSuppressionBudgetAudit(t *testing.T) {
	// One well-formed suppression counts toward the budget; a bare
	// directive and one missing its justification are findings; prose
	// mentioning icovet:ignore in a doc comment is neither.
	parse := func(filename, src string) *Package {
		pkg := &Package{ImportPath: "icoearth/internal/atmos", Fset: token.NewFileSet()}
		f, err := parser.ParseFile(pkg.Fset, filename, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		pkg.Files = []*ast.File{f}
		return pkg
	}
	pkg := parse("dycore.go", `
package atmos

// Deliberate exact comparisons are annotated with icovet:ignore where
// they occur; this doc-comment mention is not a directive.
func checks(a, b, c, d float64) bool {
	if a == b { //icovet:ignore floatcmp bit-identity between backends is the claim
		return true
	}
	if a == c { //icovet:ignore
		return true
	}
	return a != d //icovet:ignore floatcmp
}
`)
	count, diags := CheckSuppressions(pkg)
	if count != 1 {
		t.Errorf("counted %d well-formed suppression(s), want 1", count)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d audit finding(s) %v, want 2", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "must name the analyzer") {
		t.Errorf("bare directive finding = %q", diags[0].Message)
	}
	if !strings.Contains(diags[1].Message, "needs a justification") {
		t.Errorf("missing-justification finding = %q", diags[1].Message)
	}

	// Test files are exempt: fixtures exercise the ignore syntax itself.
	testPkg := parse("dycore_test.go", `
package atmos

func inTest(a, b float64) bool {
	return a == b //icovet:ignore
}
`)
	if count, diags := CheckSuppressions(testPkg); count != 0 || len(diags) != 0 {
		t.Errorf("test file audited: count=%d diags=%v", count, diags)
	}
}
