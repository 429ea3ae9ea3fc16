package sdfg

import "fmt"

// Typed binding errors. Validate (and through it the interpreter and the
// code generator) reports binding problems with these types so callers
// can match them with errors.As and programmatically learn which array
// is at fault; each message names the array and the kernel.

// ErrMissingArray reports a kernel array with no binding at all.
type ErrMissingArray struct {
	Kernel string
	Array  string
	Write  bool // the array is the kernel's assignment target
}

func (e *ErrMissingArray) Error() string {
	role := "array"
	if e.Write {
		role = "output"
	}
	return fmt.Sprintf("sdfg: unbound %s %q in kernel %s", role, e.Array, e.Kernel)
}

// ErrKindMismatch reports an array bound as one kind (index table vs
// field) but used as the other — e.g. a kernel assigning into a name
// bound with BindTable.
type ErrKindMismatch struct {
	Kernel  string
	Array   string
	BoundAs string // "index table" or "field"
	UsedAs  string // how the kernel uses it
}

func (e *ErrKindMismatch) Error() string {
	return fmt.Sprintf("sdfg: array %q in kernel %s is bound as %s but used as %s",
		e.Array, e.Kernel, e.BoundAs, e.UsedAs)
}

// ErrShortSlice reports a bound slice too short for the kernel's
// iteration space. Only references whose subscripts are the loop
// variables themselves are checked — a gather through an index table has
// a data-dependent extent the static check cannot know.
type ErrShortSlice struct {
	Kernel string
	Array  string
	Need   int // minimum length the iteration space requires
	Have   int
}

func (e *ErrShortSlice) Error() string {
	return fmt.Sprintf("sdfg: array %q in kernel %s is bound to a slice of length %d; the iteration space needs at least %d",
		e.Array, e.Kernel, e.Have, e.Need)
}
