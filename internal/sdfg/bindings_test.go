package sdfg

import (
	"errors"
	"strings"
	"testing"
)

// Binding error-path coverage: the interpreter and the emitter both route
// through Validate, so a broken binding set must fail with a typed error
// naming the offending array — before storage is touched or a line emitted.

const bindErrSource = `
KERNEL binderr
DO jc = 1, n
  DO jk = 1, m
    out(jc,jk) = q(jc,jk) + w(iel1(jc),jk)
  END DO
END DO
END KERNEL
`

func bindErrKernel(t *testing.T) *SDFG {
	t.Helper()
	k, err := Parse(bindErrSource)
	if err != nil {
		t.Fatal(err)
	}
	return Build(k)
}

// fullBindings binds every array of bindErrSource correctly for a 4×3
// iteration space over 6 gather targets.
func fullBindings() *Bindings {
	b := NewBindings(4, 3)
	b.BindField("out", make([]float64, 4*3), 2)
	b.BindField("q", make([]float64, 4*3), 2)
	b.BindField("w", make([]float64, 6*3), 2)
	b.BindTable("iel1", make([]int, 4))
	return b
}

func TestBindingsMissingField(t *testing.T) {
	g := bindErrKernel(t)
	b := fullBindings()
	delete(b.Fields, "q")
	delete(b.Dims, "q")
	err := g.Validate(b)
	var miss *ErrMissingArray
	if !errors.As(err, &miss) {
		t.Fatalf("Validate = %v, want *ErrMissingArray", err)
	}
	if miss.Array != "q" {
		t.Errorf("missing array = %q, want q", miss.Array)
	}
	if !strings.Contains(err.Error(), `"q"`) {
		t.Errorf("error does not name the array: %v", err)
	}
	// Both executors refuse the same way.
	if err := Interpret(g, b); !errors.As(err, &miss) {
		t.Errorf("Interpret = %v, want *ErrMissingArray", err)
	}
	if _, err := CodegenGoBlocked(g, b); !errors.As(err, &miss) {
		t.Errorf("CodegenGoBlocked = %v, want *ErrMissingArray", err)
	}
}

func TestBindingsMissingOutput(t *testing.T) {
	g := bindErrKernel(t)
	b := fullBindings()
	delete(b.Fields, "out")
	delete(b.Dims, "out")
	var miss *ErrMissingArray
	if err := g.Validate(b); !errors.As(err, &miss) || miss.Array != "out" || !miss.Write {
		t.Fatalf("Validate = %v, want *ErrMissingArray for output out", err)
	}
}

func TestBindingsKindMismatch(t *testing.T) {
	g := bindErrKernel(t)
	b := fullBindings()
	// Rebind the assignment target as an index table: kind mismatch.
	delete(b.Fields, "out")
	b.BindTable("out", make([]int, 4))
	b.Dims["out"] = 2 // keep the rank consistent so the kind check decides
	err := g.Validate(b)
	var kind *ErrKindMismatch
	if !errors.As(err, &kind) {
		t.Fatalf("Validate = %v, want *ErrKindMismatch", err)
	}
	if kind.Array != "out" {
		t.Errorf("mismatched array = %q, want out", kind.Array)
	}
	if !strings.Contains(err.Error(), `"out"`) {
		t.Errorf("error does not name the array: %v", err)
	}
}

func TestBindingsShortSlice(t *testing.T) {
	g := bindErrKernel(t)

	// A directly swept 2-D field one element short of NOuter*NInner.
	b := fullBindings()
	b.Fields["q"] = make([]float64, 4*3-1)
	err := g.Validate(b)
	var short *ErrShortSlice
	if !errors.As(err, &short) {
		t.Fatalf("Validate = %v, want *ErrShortSlice", err)
	}
	if short.Array != "q" || short.Need != 12 || short.Have != 11 {
		t.Errorf("short = %+v, want array q need 12 have 11", short)
	}
	if !strings.Contains(err.Error(), `"q"`) {
		t.Errorf("error does not name the array: %v", err)
	}

	// A short index table subscripted by the outer variable.
	b2 := fullBindings()
	b2.Tables["iel1"] = make([]int, 3)
	if err := g.Validate(b2); !errors.As(err, &short) || short.Array != "iel1" || short.Need != 4 {
		t.Fatalf("Validate = %v, want *ErrShortSlice for iel1 (need 4)", err)
	}

	// A gather target (w, indexed through iel1) is NOT statically
	// checkable: its extent is data-dependent, so a short slice there
	// must pass Validate.
	b3 := fullBindings()
	b3.Fields["w"] = make([]float64, 1)
	if err := g.Validate(b3); err != nil {
		t.Fatalf("Validate flagged a gather target: %v", err)
	}
}
