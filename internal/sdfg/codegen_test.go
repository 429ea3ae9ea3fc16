package sdfg

import (
	"bytes"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"icoearth/internal/grid"
)

// TestCodegenEkinh: the optimisation decisions are visible in the text
// emitted for the paper's featured kernel — the three edge lookups are
// hoisted to integer locals above the level loop, the statements sit in
// one fused group, and no index table is touched inside the level loop.
func TestCodegenEkinh(t *testing.T) {
	sd, b, err := BindProduction("ke_vn", grid.New(grid.R2B(1)), 4)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := CodegenGoBlocked(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	src := bk.Source
	for _, want := range []string{
		"func BindKeVn(nInner int,",
		"h0 := iel1[jc]",
		"h1 := iel2[jc]",
		"h2 := iel3[jc]",
		"// fused group 0",
		"for jc := lo; jc < hi; jc++",
		"for jk := 0; jk < nInner; jk++",
		"ke[jc*nInner+jk] =",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated code missing %q:\n%s", want, src)
		}
	}
	// Lookups inside the inner loop would defeat the hoist.
	inner := src[strings.Index(src, "for jk"):]
	if strings.Contains(inner, "iel1[") {
		t.Error("index table accessed inside the inner loop (hoist failed)")
	}
}

// TestCodegenParsesAsGo: beyond the production set (assembled and
// formatted by emitProductionPackage below), the emitter must turn
// thetaflux's three-statement fused group with a read-after-write
// transient into a package that parses (CodegenPackage runs format.Source
// over it).
func TestCodegenParsesAsGo(t *testing.T) {
	g := grid.New(grid.R2B(1))
	sd := mustKernel(t, ThetaFluxSource)
	b := NewBindings(g.NEdges, 4)
	for _, f := range []string{"rhoe", "flx", "dbg", "vn"} {
		b.BindField(f, make([]float64, g.NEdges*4), 2)
	}
	b.BindField("rho", make([]float64, g.NCells*4), 2)
	b.BindTable("icell1", g.Gen.Icell1)
	b.BindTable("icell2", g.Gen.Icell2)
	bk, err := CodegenGoBlocked(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	if bk.Groups != 1 {
		t.Errorf("thetaflux emitted in %d groups, want 1", bk.Groups)
	}
	if _, err := CodegenPackage("gen", []*BlockedKernel{bk}); err != nil {
		t.Errorf("generated code does not parse: %v\n%s", err, bk.Source)
	}
}

func TestCodegenDeterministic(t *testing.T) {
	sd, b, err := BindProduction("ke_vn", grid.New(grid.R2B(1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := CodegenGoBlocked(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CodegenGoBlocked(sd, b)
	if err != nil {
		t.Fatal(err)
	}
	if first.Source != again.Source {
		t.Error("codegen not deterministic")
	}
}

func TestCodegenUnboundFails(t *testing.T) {
	sd := mustKernel(t, KeVnSource)
	if _, err := CodegenGoBlocked(sd, NewBindings(4, 2)); err == nil {
		t.Error("want error for unbound arrays")
	}
}

// emitProductionPackage runs the blocked backend over every production
// kernel exactly as cmd/codegen does (same verification grid, same
// package assembly) — the shared fixture of the golden tests below.
func emitProductionPackage(t *testing.T) []byte {
	t.Helper()
	g := grid.New(grid.R2B(1))
	var kernels []*BlockedKernel
	for _, pk := range ProductionKernels() {
		sd, b, err := BindProduction(pk.Name, g, 4)
		if err != nil {
			t.Fatalf("%s: %v", pk.Name, err)
		}
		bk, err := CodegenGoBlocked(sd, b)
		if err != nil {
			t.Fatalf("%s: %v", pk.Name, err)
		}
		kernels = append(kernels, bk)
	}
	src, err := CodegenPackage("gen", kernels)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestCodegenGoldenBlocked: the blocked backend's assembled package is
// byte-stable across emissions, gofmt-idempotent (format.Source is a
// fixed point), byte-identical to the checked-in internal/gen package
// (the golden file `go generate` maintains — this is the in-test half of
// CI's generate-drift gate), and shows hoist slots, the hoisted-lookup
// provenance comments, and fusion boundaries in the text.
func TestCodegenGoldenBlocked(t *testing.T) {
	src := emitProductionPackage(t)
	if again := emitProductionPackage(t); !bytes.Equal(src, again) {
		t.Error("blocked backend not byte-stable across emissions")
	}
	formatted, err := format.Source(src)
	if err != nil {
		t.Fatalf("emitted package does not parse: %v", err)
	}
	if !bytes.Equal(src, formatted) {
		t.Error("emitted package is not gofmt-idempotent")
	}
	golden := filepath.Join("..", "gen", "kernels_gen.go")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, want) {
		t.Errorf("emitted package drifted from %s — rerun `go generate ./...`", golden)
	}
	for _, mark := range []string{
		"h0 := iel1[jc] // hoisted: iel1(jc)",
		"h1 := icell1[h0] // hoisted: icell1(iel1(jc))",
		"// fused group 0",
		"// level-invariant: blnc1(jc)",
		"// reused 2×: vn(iel1(jc),jk)",
	} {
		if !strings.Contains(string(src), mark) {
			t.Errorf("blocked package missing optimisation marker %q", mark)
		}
	}
}
