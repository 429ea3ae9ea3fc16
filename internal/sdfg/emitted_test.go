package sdfg

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The emitted-code harness: the semantic-preservation property of the
// §5.2 pipeline, stated on the code that ships. Every case goes through
// Verify → CodegenGoBlocked → CodegenPackage("main"), a generated driver
// fills each array from the closed forms below and prints every float
// array after the kernel ran, and one `go run` per test run executes the
// lot; the %x lines must equal what Interpret leaves in the same arrays.

// Fixture kernels that exist only for the tests.

// ThetaFluxSource is a fused-form candidate: three statements over the
// same domain, each consuming the previous one elementwise, so map fusion
// applies — and a debug output dead-code elimination drops once it is
// marked transient.
const ThetaFluxSource = `
KERNEL thetaflux
DO je = 1, nedges
  DO jk = 1, nlev
    rhoe(je,jk) = 0.5*(rho(icell1(je),jk) + rho(icell2(je),jk))
    flx(je,jk) = vn(je,jk)*rhoe(je,jk)
    dbg(je,jk) = flx(je,jk) - flx(je,jk)
  END DO
END DO
END KERNEL
`

// VerticalGradSource is a vertical-offset stencil: the jk−1 subscript
// needs the Fortran lower bound "DO jk = 2, nlev", which the parser maps
// to InnerLo=1.
const VerticalGradSource = `
KERNEL vertgrad
DO jc = 1, ncells
  DO jk = 2, nlev
    dqdz(jc,jk) = (q(jc,jk) - q(jc,jk-1)) * rdz(jc)
  END DO
END DO
END KERNEL
`

// warHazardSource writes a(jc,jk) after an earlier statement read
// a(jc,jk-1): fusing the two would overwrite an element one iteration
// before its neighbour consumes the original value.
const warHazardSource = `
KERNEL warhazard
DO jc = 1, n
  DO jk = 2, m
    b(jc,jk) = a(jc,jk-1)
    a(jc,jk) = c(jc,jk)
  END DO
END DO
END KERNEL
`

// emOuter × emInner is the iteration space of every harness case; index
// tables map [0, emOuter) into itself, so one extent serves every array.
const emOuter, emInner = 17, 5

// emField and emTable are the closed-form inputs. The driver source below
// carries the same two expressions; if the copies ever disagree every
// case fails. Sevenths are not dyadic, so sums and products round; no
// value is zero, so a quotient is finite unless the kernel makes a zero.
func emField(ord, i int) float64 {
	v := float64(1+(i*7+ord*13)%19) / 7
	if (i+ord)%3 == 0 {
		return -v
	}
	return v
}

func emTable(ord, i int) int { return (i*(5+2*ord) + 3) % emOuter }

const emDriverHelpers = `
func field(ord, n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		v := float64(1+(i*7+ord*13)%19) / 7
		if (i+ord)%3 == 0 {
			v = -v
		}
		f[i] = v
	}
	return f
}

func table(ord, n int) []int {
	t := make([]int, n)
	for i := range t {
		t[i] = (i*(5+2*ord) + 3) % n
	}
	return t
}
`

// emittedCase is one kernel of the harness: the graph after its passes
// ran, and which of its arrays are index tables (the rest are fields
// whose rank is the subscript count of their first reference).
type emittedCase struct {
	g      *SDFG
	tables []string
}

// bind builds the case's bindings with closed-form contents. Ordinals
// follow the sorted names, which is the emitted signature's order.
func (c emittedCase) bind() *Bindings {
	isTable := map[string]bool{}
	for _, t := range c.tables {
		isTable[t] = true
	}
	rank := map[string]int{}
	for _, st := range c.g.K.Stmts {
		walkRefs(st, func(a ArrayRef, _ bool) {
			if _, seen := rank[a.Name]; !seen {
				rank[a.Name] = len(a.Subs)
			}
		})
	}
	var names []string
	for n := range rank {
		names = append(names, n)
	}
	sort.Strings(names)
	b := NewBindings(emOuter, emInner)
	nf, nt := 0, 0
	for _, n := range names {
		if isTable[n] {
			tab := make([]int, emOuter)
			for i := range tab {
				tab[i] = emTable(nt, i)
			}
			b.BindTable(n, tab)
			nt++
			continue
		}
		data := make([]float64, emOuter)
		if rank[n] == 2 {
			data = make([]float64, emOuter*emInner)
		}
		for i := range data {
			data[i] = emField(nf, i)
		}
		b.BindField(n, data, rank[n])
		nf++
	}
	return b
}

// randomExpr builds a random expression over bound arrays and loop
// variables; depth bounds the tree height. The leaves include a nested
// lookup (its hoist must follow the hoist it consumes) and the operators
// include division and a non-square power (math.Pow in emitted form).
func randomExpr(rng *rand.Rand, depth int) Expr {
	nbr := func(e Expr) Expr { return ArrayRef{Name: "nbr", Subs: []Expr{e}} }
	if depth <= 0 {
		switch rng.Intn(5) {
		case 0:
			return NumLit{float64(1+rng.Intn(17)) / 2}
		case 1:
			return ArrayRef{Name: "x", Subs: []Expr{VarRef{"jc"}, VarRef{"jk"}}}
		case 2:
			return ArrayRef{Name: "w", Subs: []Expr{VarRef{"jc"}}}
		case 3:
			return ArrayRef{Name: "x", Subs: []Expr{nbr(VarRef{"jc"}), VarRef{"jk"}}}
		default:
			return ArrayRef{Name: "x", Subs: []Expr{nbr(nbr(VarRef{"jc"})), VarRef{"jk"}}}
		}
	}
	switch rng.Intn(7) {
	case 0:
		return Neg{randomExpr(rng, depth-1)}
	case 1:
		return BinOp{'^', randomExpr(rng, depth-1), NumLit{float64(2 + rng.Intn(2))}}
	default:
		ops := []byte{'+', '-', '*', '/', '+'}
		return BinOp{ops[rng.Intn(len(ops))], randomExpr(rng, depth-1), randomExpr(rng, depth-1)}
	}
}

// randomKernel builds one to three statements out<i>(jc,jk) = <random>.
// Half of the later statements also read the previous output, in place
// (stays in the fused group) or one level up (forces a group split, and
// the lower bound that keeps jk-1 inside the column).
func randomKernel(name string, rng *rand.Rand) *Kernel {
	k := &Kernel{Name: name, OuterVar: "jc", InnerVar: "jk"}
	for si, n := 0, 1+rng.Intn(3); si < n; si++ {
		rhs := randomExpr(rng, 3)
		if si > 0 && rng.Intn(2) == 0 {
			var at Expr = VarRef{"jk"}
			if rng.Intn(2) == 0 {
				at = BinOp{'-', at, NumLit{1}}
				k.InnerLo = 1
			}
			prev := ArrayRef{Name: fmt.Sprintf("out%d", si-1), Subs: []Expr{VarRef{"jc"}, at}}
			rhs = BinOp{'+', rhs, prev}
		}
		k.Stmts = append(k.Stmts, Assign{
			LHS: ArrayRef{Name: fmt.Sprintf("out%d", si), Subs: []Expr{VarRef{"jc"}, VarRef{"jk"}}},
			RHS: rhs,
		})
	}
	return k
}

const emRandomKernels = 64

// emittedCases lists what the harness runs: the random kernels, then the
// three fixtures (thetaflux after dead-code elimination dropped dbg).
func emittedCases(t *testing.T) []emittedCase {
	var cases []emittedCase
	for i := 0; i < emRandomKernels; i++ {
		k := randomKernel(fmt.Sprintf("rand%d", i), rand.New(rand.NewSource(int64(i))))
		cases = append(cases, emittedCase{Build(k), []string{"nbr"}})
	}
	theta := mustKernel(t, ThetaFluxSource)
	theta.MarkTransient("dbg")
	if n := theta.EliminateDeadCode(); n != 1 {
		t.Fatalf("thetaflux: dead-code elimination removed %d statements, want 1 (dbg)", n)
	}
	return append(cases,
		emittedCase{theta, []string{"icell1", "icell2"}},
		emittedCase{mustKernel(t, VerticalGradSource), nil},
		emittedCase{mustKernel(t, warHazardSource), nil})
}

// emitted holds the one run's results: per case name, the %x line of
// every float array as the interpreter and as the emitted Go left it.
var emitted struct {
	once      sync.Once
	want, got map[string][]string
	skip, err string
}

func runEmitted(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		emitted.skip = "no go tool on PATH to build the emitted package with"
		return
	}
	emitted.want, emitted.got = map[string][]string{}, map[string][]string{}
	var kernels []*BlockedKernel
	var driver strings.Builder
	driver.WriteString("package main\n\nimport \"fmt\"\n" + emDriverHelpers + "\nfunc main() {\n")
	for _, c := range emittedCases(t) {
		name := c.g.K.Name
		b := c.bind()
		if ds := Verify(c.g, b); len(ds) != 0 {
			emitted.err = fmt.Sprintf("%s: verify: %v", name, ds)
			return
		}
		bk, err := CodegenGoBlocked(c.g, b)
		if err != nil {
			emitted.err = fmt.Sprintf("%s: %v", name, err)
			return
		}
		kernels = append(kernels, bk)

		// The driver's block for this case: arrays in signature order.
		fmt.Fprintf(&driver, "\t{\n")
		var args []string
		if bk.HasInner {
			args = append(args, fmt.Sprint(emInner))
		}
		for i, f := range bk.Fields {
			fmt.Fprintf(&driver, "\t\tf%d := field(%d, %d)\n", i, i, len(b.Fields[f]))
			args = append(args, fmt.Sprintf("f%d", i))
		}
		for i := range bk.Tables {
			fmt.Fprintf(&driver, "\t\tt%d := table(%d, %d)\n", i, i, emOuter)
			args = append(args, fmt.Sprintf("t%d", i))
		}
		fmt.Fprintf(&driver, "\t\t%s(%s)(0, %d)\n", bk.FuncName, strings.Join(args, ", "), emOuter)
		for i, f := range bk.Fields {
			fmt.Fprintf(&driver, "\t\tfmt.Printf(\"%s %s %%x\\n\", f%d)\n", name, f, i)
		}
		fmt.Fprintf(&driver, "\t}\n")

		if err := Interpret(c.g, b); err != nil {
			emitted.err = fmt.Sprintf("%s: interpret: %v", name, err)
			return
		}
		for _, f := range bk.Fields {
			emitted.want[name] = append(emitted.want[name], fmt.Sprintf("%s %x", f, b.Fields[f]))
		}
	}
	driver.WriteString("}\n")

	src, err := CodegenPackage("main", kernels)
	if err != nil {
		emitted.err = err.Error()
		return
	}
	dir := t.TempDir()
	for file, data := range map[string][]byte{
		"go.mod":     []byte("module emitted\n\ngo 1.21\n"),
		"kernels.go": src,
		"main.go":    []byte(driver.String()),
	} {
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			emitted.err = err.Error()
			return
		}
	}
	cmd := exec.Command(goTool, "run", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off")
	out, err := cmd.CombinedOutput()
	if err != nil {
		emitted.err = fmt.Sprintf("go run of the emitted package: %v\n%s", err, out)
		return
	}
	for _, ln := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, rest, _ := strings.Cut(ln, " ")
		emitted.got[name] = append(emitted.got[name], rest)
	}
}

// checkEmitted fails the test unless the emitted Go of the named case
// left every float array exactly as the interpreter did.
func checkEmitted(t *testing.T, name string) {
	t.Helper()
	emitted.once.Do(func() { runEmitted(t) })
	if emitted.skip != "" {
		t.Skip(emitted.skip)
	}
	if emitted.err != "" {
		t.Fatal(emitted.err)
	}
	want, got := emitted.want[name], emitted.got[name]
	if len(want) == 0 {
		t.Fatalf("%s: not a harness case", name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: emitted run printed %d arrays, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: emitted Go diverges from the interpreter\n got %s\nwant %s", name, got[i], want[i])
		}
	}
}

// TestEmittedMatchesInterpreter: for random expression trees and the
// three fixtures, the emitted Go is bit-identical to the interpreter.
func TestEmittedMatchesInterpreter(t *testing.T) {
	for _, c := range emittedCases(t) {
		checkEmitted(t, c.g.K.Name)
	}
}
