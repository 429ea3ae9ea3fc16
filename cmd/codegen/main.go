// Command codegen runs the §5.2 pipeline end to end and emits generated
// Go code — the DaCe loop's code-generation stage:
//
//	codegen                          # print the production package
//	codegen -kernel ke_vn            # one kernel
//	codegen -out kernels_gen.go -pkg gen
//	                                 # write the compiled-in production package
//
// The -out mode is what internal/gen's go:generate directive invokes. Every
// kernel in sdfg.ProductionKernels() is emitted as an NPROMA-blocked,
// slice-backed binder, verified by the static verifier (V001–V006)
// against a real grid before a single line is written. Emission depends
// only on array kinds and ranks — never on the verification grid's size —
// so the generated package serves every resolution.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"icoearth/internal/grid"
	"icoearth/internal/sdfg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("codegen", flag.ContinueOnError)
	fs.SetOutput(out)
	which := fs.String("kernel", "", "generate only this kernel (default: all)")
	outFile := fs.String("out", "", "write the production package to this file (default: stdout)")
	pkg := fs.String("pkg", "gen", "package name for -out")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The verification grid: small, fixed, deterministic. Bindings are
	// only consulted for array kinds/ranks and verifier extents.
	g := grid.New(grid.R2B(1))
	const nlev = 4

	var kernels []*sdfg.BlockedKernel
	for _, pk := range sdfg.ProductionKernels() {
		if *which != "" && *which != pk.Name {
			continue
		}
		sd, b, err := sdfg.BindProduction(pk.Name, g, nlev)
		if err != nil {
			return err
		}
		if err := verifyGate(sd, b, pk.Name, out); err != nil {
			return err
		}
		bk, err := sdfg.CodegenGoBlocked(sd, b)
		if err != nil {
			return err
		}
		kernels = append(kernels, bk)
	}
	if len(kernels) == 0 {
		return fmt.Errorf("codegen: no kernel matched %q", *which)
	}
	src, err := sdfg.CodegenPackage(*pkg, kernels)
	if err != nil {
		return err
	}
	if *outFile == "" {
		_, err := out.Write(src)
		return err
	}
	return os.WriteFile(*outFile, src, 0o644)
}

// verifyGate runs the static verifier and refuses a kernel with any
// diagnostic (each printed first): emitted code is only as trustworthy as
// the checked legality of the transformations.
func verifyGate(sd *sdfg.SDFG, b *sdfg.Bindings, name string, out io.Writer) error {
	ds := sdfg.Verify(sd, b)
	if len(ds) == 0 {
		return nil
	}
	for _, d := range ds {
		fmt.Fprintf(out, "warning: %s\n", d)
	}
	return fmt.Errorf("codegen: kernel %s failed static verification (%d diagnostics)", name, len(ds))
}
