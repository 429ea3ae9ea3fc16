// Package sdfg is the reproduction of the paper's §5.2 "separation of
// concerns" pipeline: a parser for sequential, pragma-free Fortran-style
// kernel source (the form the domain scientist writes), a stateful
// dataflow graph over the parsed statements, performance passes written by
// the "performance engineer" (dead-code elimination, hoisting/CSE of
// neighbour index-table lookups, map fusion), a static verifier of the
// passes' preconditions, and two executors:
//
//   - Interpret: a per-element tree-walking evaluator, the stand-in for
//     the directive-based (OpenACC) execution of unfused kernels and the
//     oracle every transformation is checked against;
//   - CodegenGoBlocked: the emitter of the fused, lookup-hoisted Go that
//     ships in internal/gen — the DaCe-generated fast version.
//
// The emitted code is bit-identical to the interpreter, faster, and
// performs fewer integer index lookups (the paper reports an average 8×
// reduction): IndexLookups counts what the source spells out per point,
// BlockedKernel.Hoists what the emitted code executes.
package sdfg

import "fmt"

// Expr is a node of the expression tree.
type Expr interface {
	exprNode()
	String() string
}

// NumLit is a numeric literal.
type NumLit struct{ Val float64 }

// VarRef references a loop variable (jc or jk).
type VarRef struct{ Name string }

// ArrayRef references array element name(subs...). One subscript means a
// per-cell (or per-edge) array; two means (horizontal, vertical).
type ArrayRef struct {
	Name string
	Subs []Expr
}

// BinOp is a binary operation: + - * / ^ (power).
type BinOp struct {
	Op   byte
	L, R Expr
}

// Neg is unary minus.
type Neg struct{ X Expr }

func (NumLit) exprNode()   {}
func (VarRef) exprNode()   {}
func (ArrayRef) exprNode() {}
func (BinOp) exprNode()    {}
func (Neg) exprNode()      {}

func (n NumLit) String() string { return fmt.Sprintf("%g", n.Val) }
func (v VarRef) String() string { return v.Name }
func (a ArrayRef) String() string {
	s := a.Name + "("
	for i, sub := range a.Subs {
		if i > 0 {
			s += ","
		}
		s += sub.String()
	}
	return s + ")"
}
func (b BinOp) String() string {
	return "(" + b.L.String() + string(b.Op) + b.R.String() + ")"
}
func (n Neg) String() string { return "(-" + n.X.String() + ")" }

// Assign is one statement: LHS = RHS.
type Assign struct {
	LHS ArrayRef
	RHS Expr
}

// Kernel is a parsed double loop over the horizontal index (outer) and the
// vertical index (inner) containing a sequence of assignments — the shape
// of ICON dycore kernels.
type Kernel struct {
	Name     string
	OuterVar string // horizontal loop variable (jc / je)
	InnerVar string // vertical loop variable (jk); empty for 2-D kernels
	// InnerLo is the 0-based start of the vertical loop (Fortran
	// "DO jk = 2, nlev" gives 1): vertical-offset stencils skip the
	// boundary level(s).
	InnerLo int
	Stmts   []Assign
}

// reads collects the array names read by an expression.
func reads(e Expr, out map[string]bool) {
	switch v := e.(type) {
	case ArrayRef:
		out[v.Name] = true
		for _, s := range v.Subs {
			reads(s, out)
		}
	case BinOp:
		reads(v.L, out)
		reads(v.R, out)
	case Neg:
		reads(v.X, out)
	}
}

// Reads returns the set of arrays a statement reads (including arrays used
// in subscripts, i.e. index tables).
func (a Assign) Reads() map[string]bool {
	out := map[string]bool{}
	reads(a.RHS, out)
	for _, s := range a.LHS.Subs {
		reads(s, out)
	}
	return out
}

// Writes returns the array the statement writes.
func (a Assign) Writes() string { return a.LHS.Name }
