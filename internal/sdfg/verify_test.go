package sdfg

import (
	"reflect"
	"strings"
	"testing"

	"icoearth/internal/grid"
)

// mustKernel parses src and builds its graph, failing the test on error.
func mustKernel(t *testing.T, src string) *SDFG {
	t.Helper()
	k, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(k)
}

// bind2 registers a rank-2 field of the bindings' full extent.
func bind2(b *Bindings, names ...string) {
	for _, n := range names {
		b.BindField(n, make([]float64, b.NOuter*b.NInner), 2)
	}
}

// TestVerifyGoldenDiagnostics pins the exact diagnostics of the six
// malformed-kernel classes the verifier must catch: unbound array, rank
// mismatch, out-of-bounds constant offset, uninitialised transient read,
// illegal fusion, and write-write race.
func TestVerifyGoldenDiagnostics(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		bind      func(b *Bindings)
		transient string
		want      []Diagnostic
	}{
		{
			name: "unbound array",
			src: `
KERNEL bad_unbound
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = kine(jc,jk)
  END DO
END DO
END KERNEL
`,
			bind: func(b *Bindings) { bind2(b, "out") },
			want: []Diagnostic{
				{Pos: "bad_unbound/s0", Code: "V001", Msg: `unbound array "kine"`},
			},
		},
		{
			name: "rank mismatch",
			src: `
KERNEL bad_rank
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = q(jc,jk)
  END DO
END DO
END KERNEL
`,
			bind: func(b *Bindings) {
				bind2(b, "out")
				b.BindField("q", make([]float64, b.NOuter), 1)
			},
			want: []Diagnostic{
				{Pos: "bad_rank/s0", Code: "V002", Msg: `array "q" has rank 1 but is subscripted with 2 index(es)`},
			},
		},
		{
			name: "out-of-bounds constant offset",
			src: `
KERNEL bad_oob
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = q(jc,jk+1)
  END DO
END DO
END KERNEL
`,
			bind: func(b *Bindings) { bind2(b, "out", "q") },
			want: []Diagnostic{
				{Pos: "bad_oob/s0", Code: "V003", Msg: `array "q" accessed at flat range [1,12] outside extent 12`},
			},
		},
		{
			name: "uninitialised transient read",
			src: `
KERNEL bad_uninit
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = tmp(jc,jk)
    tmp(jc,jk) = 1
  END DO
END DO
END KERNEL
`,
			bind:      func(b *Bindings) { bind2(b, "out", "tmp") },
			transient: "tmp",
			want: []Diagnostic{
				{Pos: "bad_uninit/s0", Code: "V004", Msg: `transient "tmp" read before any write`},
			},
		},
		{
			name: "illegal fusion (element-crossing WAW)",
			src: `
KERNEL bad_fusion
DO jc = 1, n
  DO jk = 2, m
    w(jc,jk-1) = a(jc,jk)
    w(jc,jk) = b(jc,jk)
  END DO
END DO
END KERNEL
`,
			bind: func(b *Bindings) { bind2(b, "w", "a", "b") },
			want: []Diagnostic{
				{Pos: "bad_fusion/s1", Code: "V005", Msg: `element-crossing WAW: s0 and s1 write "w" at different subscripts`},
			},
		},
		{
			name: "write-write race",
			src: `
KERNEL bad_wwrace
DO jc = 1, n
  DO jk = 1, m
    w(jc,jk) = a(jc,jk)
    w(jc,jk) = b(jc,jk)
  END DO
END DO
END KERNEL
`,
			bind: func(b *Bindings) { bind2(b, "w", "a", "b") },
			want: []Diagnostic{
				{Pos: "bad_wwrace/s1", Code: "V006", Msg: `write-write race: s0 and s1 both write "w" at the same element`},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := mustKernel(t, tc.src)
			b := NewBindings(4, 3)
			tc.bind(b)
			if tc.transient != "" {
				g.MarkTransient(tc.transient)
			}
			got := Verify(g, b)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("diagnostics:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}
}

// TestVerifyNegativeSubscriptOOB: a jk-1 stencil without the Fortran
// lower bound "DO jk = 2" provably underflows the array.
func TestVerifyNegativeSubscriptOOB(t *testing.T) {
	g := mustKernel(t, `
KERNEL bad_lowbound
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = q(jc,jk-1)
  END DO
END DO
END KERNEL
`)
	b := NewBindings(4, 3)
	bind2(b, "out", "q")
	want := []Diagnostic{
		{Pos: "bad_lowbound/s0", Code: "V003", Msg: `array "q" accessed at flat range [-1,10] outside extent 12`},
	}
	if got := Verify(g, b); !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics:\n got %+v\nwant %+v", got, want)
	}
}

// TestVerifyCleanOnKernelLibrary: every production kernel and every
// parser fixture must verify without diagnostics, including the
// index-table indirections (whose value ranges the verifier bounds from
// the bound tables).
func TestVerifyCleanOnKernelLibrary(t *testing.T) {
	g := grid.New(grid.R2B(2))
	const nlev = 5
	for _, pk := range ProductionKernels() {
		sd, b, err := BindProduction(pk.Name, g, nlev)
		if err != nil {
			t.Fatal(err)
		}
		if ds := Verify(sd, b); len(ds) != 0 {
			t.Errorf("%s: %v", pk.Name, ds)
		}
	}

	// thetaflux: bound by hand on the edge domain, rhoe transient.
	k, err := Parse(ThetaFluxSource)
	if err != nil {
		t.Fatal(err)
	}
	tf := Build(k)
	tb := NewBindings(g.NEdges, nlev)
	for _, n := range []string{"rhoe", "flx", "dbg", "vn"} {
		tb.BindField(n, make([]float64, g.NEdges*nlev), 2)
	}
	tb.BindField("rho", make([]float64, g.NCells*nlev), 2)
	tb.BindTable("icell1", g.Gen.Icell1)
	tb.BindTable("icell2", g.Gen.Icell2)
	tf.MarkTransient("rhoe")
	if ds := Verify(tf, tb); len(ds) != 0 {
		t.Errorf("thetaflux: %v", ds)
	}

	// vertgrad: the jk-1 stencil is in bounds because of InnerLo.
	k, err = Parse(VerticalGradSource)
	if err != nil {
		t.Fatal(err)
	}
	vg := Build(k)
	vb := NewBindings(g.NCells, nlev)
	bind2(vb, "dqdz", "q")
	vb.BindField("rdz", make([]float64, g.NCells), 1)
	if ds := Verify(vg, vb); len(ds) != 0 {
		t.Errorf("vertgrad: %v", ds)
	}
}

// TestFusableGroupsWARHazard: a later statement writing an array an
// earlier group member read at *different* subscripts must flush the
// group — fusing would overwrite a(jc,jk) one iteration before the
// neighbouring read a(jc,jk-1) consumes the original value. The seed
// implementation only tracked RAW and fused this pair incorrectly.
func TestFusableGroupsWARHazard(t *testing.T) {
	g := mustKernel(t, warHazardSource)
	groups := g.FusableGroups()
	if !reflect.DeepEqual(groups, [][]int{{0}, {1}}) {
		t.Fatalf("WAR hazard not flushed: groups = %v", groups)
	}

	// With the flush in place the fusion audit is clean and the interpreter
	// shifts a down one level into b before a is overwritten.
	bi := NewBindings(3, 4)
	bind2(bi, "b", "c")
	a := make([]float64, 12)
	for i := range a {
		a[i] = float64(i + 1)
	}
	bi.BindField("a", a, 2)
	if ds := Verify(g, bi); len(ds) != 0 {
		t.Fatalf("verify: %v", ds)
	}
	if err := Interpret(g, bi); err != nil {
		t.Fatal(err)
	}
	for jc := 0; jc < 3; jc++ {
		for jk := 1; jk < 4; jk++ {
			if got, want := bi.Fields["b"][jc*4+jk], float64(jc*4+jk); got != want {
				t.Fatalf("b[%d,%d] = %v, want the original a[%d,%d] = %v", jc, jk, got, jc, jk-1, want)
			}
		}
	}
	// The emitted Go keeps the two groups apart and agrees bit for bit.
	checkEmitted(t, "warhazard")

	// Same-subscript feedback (a(jc,jk) = f(a(jc,jk))) must still fuse.
	g2 := mustKernel(t, `
KERNEL samesub
DO jc = 1, n
  DO jk = 1, m
    b(jc,jk) = a(jc,jk)
    a(jc,jk) = 2*a(jc,jk)
  END DO
END DO
END KERNEL
`)
	if groups := g2.FusableGroups(); len(groups) != 1 {
		t.Errorf("same-subscript WAR should fuse: groups = %v", groups)
	}
}

// TestValidateRankMismatch: the lightweight Validate (the gate both
// executors run first) rejects subscript-count/rank disagreements.
func TestValidateRankMismatch(t *testing.T) {
	g := mustKernel(t, `
KERNEL rankcheck
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = q(jc)
  END DO
END DO
END KERNEL
`)
	b := NewBindings(4, 3)
	bind2(b, "out", "q") // q bound rank-2 but subscripted rank-1
	err := g.Validate(b)
	if err == nil || !strings.Contains(err.Error(), "rank") {
		t.Fatalf("Validate = %v, want rank mismatch error", err)
	}
	if err2 := Interpret(g, b); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("Interpret = %v, want Validate's rank mismatch error", err2)
	}
	if _, err2 := CodegenGoBlocked(g, b); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("CodegenGoBlocked = %v, want Validate's rank mismatch error", err2)
	}
	// And the correctly bound version passes.
	b2 := NewBindings(4, 3)
	bind2(b2, "out")
	b2.BindField("q", make([]float64, 4), 1)
	if err := g.Validate(b2); err != nil {
		t.Fatal(err)
	}
}
