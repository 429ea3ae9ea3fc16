package sdfg

import (
	"errors"
	"strings"
	"testing"

	"icoearth/internal/grid"
)

func TestParseEkinh(t *testing.T) {
	k, err := Parse(KeVnSource)
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "ke_vn" || k.OuterVar != "jc" || k.InnerVar != "jk" {
		t.Fatalf("kernel header: %+v", k)
	}
	if len(k.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(k.Stmts))
	}
	if k.Stmts[0].Writes() != "ke" {
		t.Errorf("writes = %s", k.Stmts[0].Writes())
	}
	reads := k.Stmts[0].Reads()
	for _, want := range []string{"blnc1", "vn", "iel1", "iel2", "iel3"} {
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

// TestIndexLookupReduction: the §5.2 index-reuse figure, read off the
// source and the emitted code. ke_vn spells out six lookups per cell-level
// (each of the three vn gathers appears twice, squared), which the
// interpreter executes as written; the emitted Go executes three per
// cell, hoisted above the level loop.
func TestIndexLookupReduction(t *testing.T) {
	const nlev = 15
	sd, b, err := BindProduction("ke_vn", grid.New(grid.R2B(1)), nlev)
	if err != nil {
		t.Fatal(err)
	}
	distinct, occ := sd.IndexLookups(b.IsTable)
	bk, err := CodegenGoBlocked(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	if naive := occ * nlev; naive != 90 || bk.Hoists != 3 || len(distinct) != 3 {
		t.Errorf("lookups per cell = %d → %d (%d distinct), want 90 → 3 (3 distinct)", naive, bk.Hoists, len(distinct))
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
	// The pass's pre- and postcondition: the graph is structurally legal
	// (V004–V006) going in and coming out.
	if ds := Verify(g, nil); len(ds) != 0 {
		t.Fatalf("precondition: %v", ds)
	}
	removed := g.EliminateDeadCode()
	if removed != 1 {
		t.Errorf("removed = %d, want 1 (dbg only; rhoe is read by flx)", removed)
	}
	if len(g.K.Stmts) != 2 {
		t.Errorf("stmts after DCE = %d", len(g.K.Stmts))
	}
	if ds := Verify(g, nil); len(ds) != 0 {
		t.Errorf("postcondition: %v", ds)
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
	// The interpreter honours that split with one whole-domain sweep per
	// statement. A block body sweeps both groups per point while other
	// blocks run, so the emitter must refuse a dependence between
	// horizontal points rather than emit a race.
	b2 := NewBindings(4, 3)
	bind2(b2, "a", "b", "c")
	b2.BindTable("nbr", make([]int, 4))
	if ds := Verify(g2, b2); len(ds) != 0 {
		t.Fatalf("verify: %v", ds)
	}
	if _, err := CodegenGoBlocked(g2, b2); err == nil || !strings.Contains(err.Error(), "a(nbr(jc),jk)") {
		t.Errorf("CodegenGoBlocked = %v, want a refusal naming a(nbr(jc),jk)", err)
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
	k, _ := Parse(KeVnSource)
	g := Build(k)
	b := NewBindings(10, 2)
	var miss *ErrMissingArray
	if err := g.Validate(b); !errors.As(err, &miss) {
		t.Errorf("Validate = %v, want *ErrMissingArray", err)
	}
	if err := Interpret(g, b); !errors.As(err, &miss) {
		t.Errorf("Interpret = %v, want *ErrMissingArray", err)
	}
	if _, err := CodegenGoBlocked(g, b); !errors.As(err, &miss) {
		t.Errorf("CodegenGoBlocked = %v, want *ErrMissingArray", err)
	}
}

// TestVerticalOffsetKernel: jk−1 stencils work in both executors with the
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
	// The emitted Go carries the lower bound, and run by the harness it
	// agrees bit for bit (level 0 keeps its initial contents there too).
	bk, err := CodegenGoBlocked(g, b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(bk.Source, "for jk := 1; jk < nInner") {
		t.Errorf("codegen lost the lower bound:\n%s", bk.Source)
	}
	checkEmitted(t, "vertgrad")
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
