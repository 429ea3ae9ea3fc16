package sdfg

import (
	"fmt"
	"strconv"
)

// This file is the static verifier of the §5.2 pipeline: the legality
// checker that makes the "trust the transformed code" story of DaCe-style
// separation of concerns sound. Every transformation (dead-code
// elimination, map fusion, index-lookup hoisting) has preconditions; the
// verifier checks them *statically*, before codegen, instead of assuming
// them. cmd/codegen runs it as a mandatory gate before a line is emitted.

// Diagnostic codes. Stable identifiers so tooling (and golden tests) can
// match on them.
const (
	CodeUnbound       = "V001" // array referenced but not bound
	CodeRankMismatch  = "V002" // subscript count != declared rank
	CodeOOB           = "V003" // provably out-of-bounds subscript
	CodeUninitRead    = "V004" // transient read before any write
	CodeIllegalFusion = "V005" // element-crossing hazard inside a fusable group
	CodeWWRace        = "V006" // same-element double write inside a fusable group
)

// Diagnostic is one verifier finding. Pos identifies the kernel and
// statement ("kernel/s<index>"); Code is one of the V0xx constants.
type Diagnostic struct {
	Pos  string
	Code string
	Msg  string
}

func (d Diagnostic) String() string { return d.Pos + ": " + d.Code + ": " + d.Msg }

// stmtPos renders the canonical position of statement i of kernel k.
func stmtPos(k *Kernel, i int) string { return k.Name + "/s" + strconv.Itoa(i) }

// Verify statically checks a kernel graph against its bindings and
// returns every violation found (empty slice means the kernel is clean).
// Bindings may be nil, in which case only the structural checks that need
// no storage information run (V004–V006); with bindings the binding
// checks (V001–V003) run too. Diagnostics come out in statement order,
// binding checks before dataflow checks per statement group.
func Verify(g *SDFG, b *Bindings) []Diagnostic {
	var ds []Diagnostic
	if b != nil {
		ds = append(ds, verifyBindings(g, b)...)
	}
	ds = append(ds, verifyTransientInit(g)...)
	ds = append(ds, verifyFusion(g)...)
	return ds
}

// --- Binding checks: V001 unbound, V002 rank, V003 bounds -----------------

func verifyBindings(g *SDFG, b *Bindings) []Diagnostic {
	var ds []Diagnostic
	for i, st := range g.K.Stmts {
		pos := stmtPos(g.K, i)
		report := func(code, format string, args ...any) {
			ds = append(ds, Diagnostic{Pos: pos, Code: code, Msg: fmt.Sprintf(format, args...)})
		}
		// Walk every array reference in syntactic order (LHS first, then
		// RHS) so diagnostics are deterministic.
		walkRefs(st, func(a ArrayRef, isWrite bool) {
			if !b.has(a.Name) {
				role := "array"
				if isWrite {
					role = "output"
				}
				report(CodeUnbound, "unbound %s %q", role, a.Name)
				return
			}
			if dims := b.Dims[a.Name]; dims != len(a.Subs) {
				report(CodeRankMismatch, "array %q has rank %d but is subscripted with %d index(es)",
					a.Name, dims, len(a.Subs))
				return
			}
			if isWrite && b.IsTable(a.Name) {
				report(CodeOOB, "index table %q used as assignment target", a.Name)
				return
			}
			lo, hi, ok := flatRange(a, g.K, b)
			if !ok {
				return // subscripts not statically analysable; runtime checks apply
			}
			ext := b.extent(a.Name)
			if lo < 0 || hi >= ext {
				report(CodeOOB, "array %q accessed at flat range [%d,%d] outside extent %d",
					a.Name, lo, hi, ext)
			}
		})
	}
	return ds
}

// extent returns the flat length of the storage backing name.
func (b *Bindings) extent(name string) int {
	if t, ok := b.Tables[name]; ok {
		return len(t)
	}
	return len(b.Fields[name])
}

// walkRefs visits every ArrayRef of a statement in syntactic order: the
// LHS target, subscripts of the LHS, then the RHS left-to-right.
func walkRefs(st Assign, visit func(a ArrayRef, isWrite bool)) {
	visit(st.LHS, true)
	for _, s := range st.LHS.Subs {
		walkRefExpr(s, visit)
	}
	walkRefExpr(st.RHS, visit)
}

func walkRefExpr(e Expr, visit func(a ArrayRef, isWrite bool)) {
	switch v := e.(type) {
	case ArrayRef:
		visit(v, false)
		for _, s := range v.Subs {
			walkRefExpr(s, visit)
		}
	case BinOp:
		walkRefExpr(v.L, visit)
		walkRefExpr(v.R, visit)
	case Neg:
		walkRefExpr(v.X, visit)
	}
}

// flatRange computes the inclusive range of flat indices an array
// reference can touch over the full iteration space, using interval
// arithmetic over affine subscripts with constant offsets. Loop variables
// span their declared ranges; index-table lookups span the table's actual
// value range (tables are bound before verification, so their contents
// are static inputs). Returns ok=false when a subscript cannot be
// bounded (e.g. division).
func flatRange(a ArrayRef, k *Kernel, b *Bindings) (lo, hi int, ok bool) {
	n := len(a.Subs)
	los := make([]int, n)
	his := make([]int, n)
	for i, s := range a.Subs {
		l, h, sok := exprRange(s, k, b)
		if !sok {
			return 0, 0, false
		}
		los[i], his[i] = l, h
	}
	if n == 1 {
		return los[0], his[0], true
	}
	// Two subscripts: flat = s0*NInner + s1, level-fastest layout.
	return los[0]*b.NInner + los[1], his[0]*b.NInner + his[1], true
}

// exprRange bounds an integer-valued subscript expression.
func exprRange(e Expr, k *Kernel, b *Bindings) (lo, hi int, ok bool) {
	switch v := e.(type) {
	case NumLit:
		n := int(v.Val)
		return n, n, true
	case VarRef:
		switch v.Name {
		case k.OuterVar:
			return 0, b.NOuter - 1, true
		case k.InnerVar:
			inner := b.NInner
			if k.InnerVar == "" {
				inner = 1
			}
			return k.InnerLo, inner - 1, true
		}
		return 0, 0, false
	case Neg:
		l, h, sok := exprRange(v.X, k, b)
		return -h, -l, sok
	case BinOp:
		l1, h1, ok1 := exprRange(v.L, k, b)
		l2, h2, ok2 := exprRange(v.R, k, b)
		if !ok1 || !ok2 {
			return 0, 0, false
		}
		switch v.Op {
		case '+':
			return l1 + l2, h1 + h2, true
		case '-':
			return l1 - h2, h1 - l2, true
		case '*':
			c := [4]int{l1 * l2, l1 * h2, h1 * l2, h1 * h2}
			lo, hi = c[0], c[0]
			for _, x := range c[1:] {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			return lo, hi, true
		}
		return 0, 0, false
	case ArrayRef:
		// A table lookup inside a subscript: its value range is the range
		// of the table's entries. (The subscript of the lookup itself is
		// bounds-checked separately by the walkRefs pass.)
		tab, isTab := b.Tables[v.Name]
		if !isTab || len(tab) == 0 {
			return 0, 0, false
		}
		lo, hi = tab[0], tab[0]
		for _, x := range tab[1:] {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return lo, hi, true
	}
	return 0, 0, false
}

// --- Dataflow check: V004 transient read before write ---------------------

// verifyTransientInit reports reads of transient arrays that no earlier
// statement has written: transients are kernel-internal scratch, so such
// a read consumes garbage (non-transient arrays are model state,
// initialised outside the kernel).
func verifyTransientInit(g *SDFG) []Diagnostic {
	var ds []Diagnostic
	written := map[string]bool{}
	for i, st := range g.K.Stmts {
		for _, name := range readNamesOrdered(st) {
			if g.Transients[name] && !written[name] {
				ds = append(ds, Diagnostic{
					Pos:  stmtPos(g.K, i),
					Code: CodeUninitRead,
					Msg:  fmt.Sprintf("transient %q read before any write", name),
				})
			}
		}
		written[st.Writes()] = true
	}
	return ds
}

// readNamesOrdered lists the arrays a statement reads in syntactic order,
// deduplicated.
func readNamesOrdered(st Assign) []string {
	var names []string
	seen := map[string]bool{st.LHS.Name: true}
	walkRefs(st, func(a ArrayRef, isWrite bool) {
		if isWrite || seen[a.Name] {
			return
		}
		seen[a.Name] = true
		names = append(names, a.Name)
	})
	return names
}

// --- Fusion legality audit: V005 hazards, V006 WW races -------------------

// verifyFusion re-derives the conflict analysis of FusableGroups
// independently and over a *wider* hazard set: fusing two map statements
// is legal only if no pair inside the group has an element-crossing RAW,
// WAR or WAW dependence (fusion reorders the sweeps into one per-element
// pass, so any dependence between *different* elements changes results).
// Two same-element writes (identical subscripts) are reported separately
// as a write-write race: the fused group is a single parallel map in the
// DaCe model, so double-writing one element has no defined order across
// parallel executions.
func verifyFusion(g *SDFG) []Diagnostic {
	var ds []Diagnostic
	for _, group := range g.FusableGroups() {
		for ai := 0; ai < len(group); ai++ {
			for bi := ai + 1; bi < len(group); bi++ {
				i, j := group[ai], group[bi]
				ds = append(ds, auditPair(g.K, i, j)...)
			}
		}
	}
	return ds
}

// auditPair checks the ordered statement pair (i before j) inside one
// fusable group for fusion-illegal dependences.
func auditPair(k *Kernel, i, j int) []Diagnostic {
	var ds []Diagnostic
	si, sj := k.Stmts[i], k.Stmts[j]
	wi := subscriptSig([][]Expr{si.LHS.Subs})
	wj := subscriptSig([][]Expr{sj.LHS.Subs})
	pos := stmtPos(k, j)

	// RAW crossing: j reads what i writes, at different elements.
	for _, subs := range readSubscripts(sj, si.Writes()) {
		if subscriptSig([][]Expr{subs}) != wi {
			ds = append(ds, Diagnostic{Pos: pos, Code: CodeIllegalFusion,
				Msg: fmt.Sprintf("element-crossing RAW: s%d reads %q at different subscripts than s%d writes", j, si.Writes(), i)})
			break
		}
	}
	// WAR crossing: j writes what i reads, at different elements.
	for _, subs := range readSubscripts(si, sj.Writes()) {
		if subscriptSig([][]Expr{subs}) != wj {
			ds = append(ds, Diagnostic{Pos: pos, Code: CodeIllegalFusion,
				Msg: fmt.Sprintf("element-crossing WAR: s%d writes %q which s%d reads at different subscripts", j, sj.Writes(), i)})
			break
		}
	}
	// Writes to the same array: same element is a WW race, different
	// element is a WAW crossing.
	if si.Writes() == sj.Writes() {
		if wi == wj {
			ds = append(ds, Diagnostic{Pos: pos, Code: CodeWWRace,
				Msg: fmt.Sprintf("write-write race: s%d and s%d both write %q at the same element", i, j, si.Writes())})
		} else {
			ds = append(ds, Diagnostic{Pos: pos, Code: CodeIllegalFusion,
				Msg: fmt.Sprintf("element-crossing WAW: s%d and s%d write %q at different subscripts", i, j, si.Writes())})
		}
	}
	return ds
}
