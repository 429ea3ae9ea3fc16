package sdfg

import (
	"math"
	"strings"
	"testing"
	"time"

	"icoearth/internal/grid"
)

func TestParseEkinh(t *testing.T) {
	k, err := Parse(EkinhSource)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "z_ekinh" || k.OuterVar != "jc" || k.InnerVar != "jk" {
		t.Fatalf("kernel header: %+v", k)
	}
	if len(k.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(k.Stmts))
	}
	if k.Stmts[0].Writes() != "ekinh" {
		t.Errorf("writes = %s", k.Stmts[0].Writes())
	}
	reads := k.Stmts[0].Reads()
	for _, want := range []string{"blnc1", "kine", "iel1", "iel2", "iel3"} {
		if !reads[want] {
			t.Errorf("missing read %s", want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"KERNEL x\nEND KERNEL",           // no loop
		"KERNEL x\nDO jc = 1, n\nEND DO", // missing END KERNEL
		"KERNEL x\nDO jc = 1, n\na(jc) = \nEND DO\nEND KERNEL",  // empty RHS
		"KERNEL x\nDO jc = 1, n\n3 = a(jc)\nEND DO\nEND KERNEL", // bad LHS
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestExpressionParsing(t *testing.T) {
	cases := map[string]string{
		"a(jc) + b(jc)*c(jc)": "(a(jc)+(b(jc)*c(jc)))",
		"a(jc)**2":            "(a(jc)^2)",
		"-a(jc) - -b(jc)":     "((-a(jc))-(-b(jc)))",
		"2.5e3 * x(jc,jk)":    "(2500*x(jc,jk))",
		"(a(jc)+b(jc))/2":     "((a(jc)+b(jc))/2)",
		"a(jc)*b(jc)**2":      "(a(jc)*(b(jc)^2))",
		"x(i1(jc),jk)":        "x(i1(jc),jk)",
	}
	for src, want := range cases {
		e, err := parseExpr(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if e.String() != want {
			t.Errorf("%q parsed as %s, want %s", src, e.String(), want)
		}
	}
}

func TestPowerRightAssociative(t *testing.T) {
	e, err := parseExpr("a(jc)**2**3")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a(jc)^(2^3))" {
		t.Errorf("got %s", e.String())
	}
}

// TestInterpretSimple: a tiny arithmetic kernel computes correctly.
func TestInterpretSimple(t *testing.T) {
	k, err := Parse(`
KERNEL axpy
DO jc = 1, n
  DO jk = 1, m
    y(jc,jk) = 2*x(jc,jk) + 1
  END DO
END DO
END KERNEL
`)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(k)
	b := NewBindings(4, 3)
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	y := make([]float64, 12)
	b.BindField("x", x, 2)
	b.BindField("y", y, 2)
	if err := Interpret(g, b); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != 2*x[i]+1 {
			t.Fatalf("y[%d] = %v", i, y[i])
		}
	}
}

func TestCompiledMatchesInterpreterOnGridKernels(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nlev = 5
	kine := make([]float64, g.NEdges*nlev)
	for i := range kine {
		kine[i] = math.Sin(float64(i) * 0.01)
	}
	sd, b, out, err := BindEkinh(g, nlev, kine)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBitIdentical(sd, b, out); err != nil {
		t.Fatal(err)
	}

	vn := make([]float64, g.NEdges*nlev)
	for i := range vn {
		vn[i] = math.Cos(float64(i) * 0.02)
	}
	sd2, b2, out2, err := BindDivergence(g, nlev, vn)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBitIdentical(sd2, b2, out2); err != nil {
		t.Fatal(err)
	}

	psi := make([]float64, g.NCells*nlev)
	for i := range psi {
		psi[i] = float64(i % 17)
	}
	sd3, b3, out3, err := BindGradient(g, nlev, psi)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBitIdentical(sd3, b3, out3); err != nil {
		t.Fatal(err)
	}
}

// TestEkinhMatchesGridMethod: the DSL kernel reproduces grid.KineticEnergy
// when fed u² at edges (weights are the same).
func TestEkinhMatchesGridOperator(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nlev = 1
	un := make([]float64, g.NEdges)
	kine := make([]float64, g.NEdges)
	for e := range un {
		un[e] = math.Sin(float64(e))
		kine[e] = un[e] * un[e]
	}
	sd, b, out, err := BindEkinh(g, nlev, kine)
	if err != nil {
		t.Fatal(err)
	}
	if err := Interpret(sd, b); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, g.NCells)
	g.KineticEnergy(un, want)
	for c := range want {
		if math.Abs(out[c]-want[c]) > 1e-15*math.Abs(want[c])+1e-300 {
			t.Fatalf("cell %d: dsl %v vs grid %v", c, out[c], want[c])
		}
	}
}

func TestIndexLookupReduction(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nlev = 16
	kine := make([]float64, g.NEdges*nlev)
	sd, b, _, err := BindEkinh(g, nlev, kine)
	if err != nil {
		t.Fatal(err)
	}
	// Interpreter lookups.
	b.LookupCount = 0
	if err := Interpret(sd, b); err != nil {
		t.Fatal(err)
	}
	naive := b.LookupCount
	// Compiled lookups.
	b.LookupCount = 0
	c, err := Compile(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	hoisted := b.LookupCount
	if hoisted >= naive {
		t.Fatalf("no lookup reduction: %d → %d", naive, hoisted)
	}
	ratio := float64(naive) / float64(hoisted)
	// 3 lookups × nlev per cell naive vs 3 per cell hoisted → ratio = nlev.
	if ratio < float64(nlev)*0.99 {
		t.Errorf("lookup reduction ratio = %.1f, want ≈%d", ratio, nlev)
	}
	if c.HoistedLookups != 3 {
		t.Errorf("distinct lookups = %d, want 3", c.HoistedLookups)
	}
	if c.NaiveLookups != 3*nlev {
		t.Errorf("naive lookups/cell = %d, want %d", c.NaiveLookups, 3*nlev)
	}
}

func TestDeadCodeElimination(t *testing.T) {
	k, err := Parse(ThetaFluxSource)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(k)
	if len(g.K.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(g.K.Stmts))
	}
	g.MarkTransient("dbg")
	g.MarkTransient("rhoe")
	removed := g.EliminateDeadCode()
	if removed != 1 {
		t.Errorf("removed = %d, want 1 (dbg only; rhoe is read by flx)", removed)
	}
	if len(g.K.Stmts) != 2 {
		t.Errorf("stmts after DCE = %d", len(g.K.Stmts))
	}
}

func TestFusableGroups(t *testing.T) {
	k, err := Parse(ThetaFluxSource)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(k)
	groups := g.FusableGroups()
	// All three statements are element-local (rhoe read at same (je,jk) it
	// was written) → one fused group.
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("groups = %v, want single group of 3", groups)
	}

	// A kernel with an element-crossing dependency must split.
	k2, err := Parse(`
KERNEL crossing
DO jc = 1, n
  DO jk = 1, m
    a(jc,jk) = b(jc,jk) + 1
    c(jc,jk) = a(nbr(jc),jk)
  END DO
END DO
END KERNEL
`)
	if err != nil {
		t.Fatal(err)
	}
	g2 := Build(k2)
	groups2 := g2.FusableGroups()
	if len(groups2) != 2 {
		t.Errorf("crossing groups = %v, want 2", groups2)
	}
}

func TestDependencyGraph(t *testing.T) {
	k, _ := Parse(ThetaFluxSource)
	g := Build(k)
	// flx depends on rhoe (stmt 1 on 0), dbg on flx (2 on 1).
	if len(g.Deps[0]) != 0 {
		t.Errorf("stmt0 deps = %v", g.Deps[0])
	}
	if len(g.Deps[1]) != 1 || g.Deps[1][0] != 0 {
		t.Errorf("stmt1 deps = %v", g.Deps[1])
	}
	if len(g.Deps[2]) != 1 || g.Deps[2][0] != 1 {
		t.Errorf("stmt2 deps = %v", g.Deps[2])
	}
}

func TestStripDirectives(t *testing.T) {
	clean := StripDirectives(EkinhDirectiveSource)
	if strings.Contains(clean, "!$ACC") || strings.Contains(clean, "!$NEC") ||
		strings.Contains(clean, "#ifndef") || strings.Contains(clean, "!DIR$") {
		t.Errorf("directives survived:\n%s", clean)
	}
	// The #else duplicated loop must be gone, the first branch kept.
	if strings.Contains(clean, "outerloop_unroll") {
		t.Error("NEC branch survived")
	}
	if !strings.Contains(clean, "DO jc = i_startidx, i_endidx") {
		t.Error("primary loop ordering lost")
	}
	r := Report(EkinhDirectiveSource)
	if r.CleanLines >= r.DirectiveLines {
		t.Errorf("no line reduction: %d → %d", r.DirectiveLines, r.CleanLines)
	}
	if r.Ratio() >= 0.75 {
		t.Errorf("ratio = %.2f, want substantial reduction", r.Ratio())
	}
}

func TestPaperLoCNumbers(t *testing.T) {
	r := PaperReport()
	if r.DirectiveLines != 2728 || r.CleanLines != 1400 {
		t.Errorf("paper numbers wrong: %+v", r)
	}
	if r.Ratio() >= 0.52 {
		t.Errorf("paper ratio = %v, §5.2 says <50%%", r.Ratio())
	}
}

func TestValidateUnbound(t *testing.T) {
	k, _ := Parse(EkinhSource)
	g := Build(k)
	b := NewBindings(10, 2)
	if err := g.Validate(b); err == nil {
		t.Error("validate should fail with no bindings")
	}
	if err := Interpret(g, b); err == nil {
		t.Error("interpret should fail with no bindings")
	}
	if _, err := Compile(g, b); err == nil {
		t.Error("compile should fail with no bindings")
	}
}

// TestCompiledFasterThanInterpreter: the §5.2 performance claim at laptop
// scale — the DaCe-style compiled form beats the per-element tree walker.
func TestCompiledFasterThanInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	g := grid.New(grid.R2B(3))
	const nlev = 30
	kine := make([]float64, g.NEdges*nlev)
	for i := range kine {
		kine[i] = float64(i%100) * 0.01
	}
	sd, b, _, err := BindEkinh(g, nlev, kine)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	timeIt := func(f func()) float64 {
		t0 := nowSeconds()
		for i := 0; i < 5; i++ {
			f()
		}
		return nowSeconds() - t0
	}
	ti := timeIt(func() { _ = Interpret(sd, b) })
	tc := timeIt(func() { c.Run() })
	if tc >= ti {
		t.Errorf("compiled (%.3fs) not faster than interpreter (%.3fs)", tc, ti)
	} else {
		t.Logf("sdfg speedup: %.1f× (interp %.3fs, compiled %.3fs)", ti/tc, ti, tc)
	}
}

// nowSeconds returns a monotonic timestamp in seconds.
func nowSeconds() float64 {
	return float64(time.Now().UnixNano()) / 1e9
}

// TestVerticalOffsetKernel: jk−1 stencils work in both backends with the
// Fortran lower bound honoured (level 0 untouched).
func TestVerticalOffsetKernel(t *testing.T) {
	k, err := Parse(VerticalGradSource)
	if err != nil {
		t.Fatal(err)
	}
	if k.InnerLo != 1 {
		t.Fatalf("InnerLo = %d, want 1 for 'DO jk = 2, nlev'", k.InnerLo)
	}
	g := Build(k)
	const nOuter, nInner = 7, 5
	b := NewBindings(nOuter, nInner)
	q := make([]float64, nOuter*nInner)
	for i := range q {
		q[i] = float64(i * i % 23)
	}
	dqdz := make([]float64, nOuter*nInner)
	rdz := make([]float64, nOuter)
	for i := range rdz {
		rdz[i] = 0.5
	}
	b.BindField("q", q, 2)
	b.BindField("dqdz", dqdz, 2)
	b.BindField("rdz", rdz, 1)
	if err := Interpret(g, b); err != nil {
		t.Fatal(err)
	}
	for jc := 0; jc < nOuter; jc++ {
		if dqdz[jc*nInner] != 0 {
			t.Fatalf("boundary level written at jc=%d", jc)
		}
		for jk := 1; jk < nInner; jk++ {
			want := (q[jc*nInner+jk] - q[jc*nInner+jk-1]) * 0.5
			if dqdz[jc*nInner+jk] != want {
				t.Fatalf("dqdz[%d,%d] = %v want %v", jc, jk, dqdz[jc*nInner+jk], want)
			}
		}
	}
	// Compiled backend agrees bit-for-bit.
	ref := make([]float64, len(dqdz))
	copy(ref, dqdz)
	for i := range dqdz {
		dqdz[i] = 0
	}
	c, err := Compile(g, b)
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	for i := range dqdz {
		if dqdz[i] != ref[i] {
			t.Fatalf("compiled differs at %d", i)
		}
	}
	// And the generated Go carries the lower bound.
	bk, err := CodegenGoBlocked(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bk.Source, "for jk := 1; jk < nInner") {
		t.Errorf("codegen lost the lower bound:\n%s", bk.Source)
	}
}

// TestVerticalOffsetSplitsFusion: an element-crossing vertical RAW forces
// a fusion split, mirroring the neighbour-crossing horizontal case.
func TestVerticalOffsetSplitsFusion(t *testing.T) {
	k, err := Parse(`
KERNEL chainvert
DO jc = 1, n
  DO jk = 2, m
    a(jc,jk) = b(jc,jk) + 1
    c(jc,jk) = a(jc,jk-1)
  END DO
END DO
END KERNEL
`)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(k)
	if groups := g.FusableGroups(); len(groups) != 2 {
		t.Errorf("vertical RAW groups = %v, want split", groups)
	}
}
