package sdfg

import (
	"fmt"
	"go/format"
	"math"
	"sort"
	"strings"
)

// This file is the codegen backend — the analogue of DaCe's code
// generation stage. CodegenGoBlocked emits the form that ships in the
// build: a binder over concrete slices returning an NPROMA block body
// compatible with the sched pool:
//
//	func Bind<Name>(nInner int, <fields...> []float64, <tables...> []int) func(lo, hi int)
//
// The returned closure runs the kernel over the horizontal range [lo, hi)
// — exactly the contract of sched.Run — with the optimisation decisions of
// the SDFG passes preserved in the emitted text: statements fused into
// groups, and every distinct index-table lookup hoisted out of the
// vertical loop into an integer local computed once per horizontal point
// (the paper's §5.2 index-reuse optimisation). Fields are bound once at
// binder-call time, so dispatching the body allocates nothing.
//
// Bit-identity argument: the emitted expressions preserve the parse tree's
// association exactly (every binary operation is parenthesised), integer
// subscripts use int arithmetic that agrees with the interpreter's
// float64-evaluate-then-truncate on all representable indices (< 2⁵³), and
// no term is reordered or folded — so generated == Interpret bit for
// bit: the association order written in the DSL source is the order the
// shipped code evaluates.
//
// On top of the hoisted index lookups the emitter performs load CSE:
// float loads of arrays the kernel never writes are bound to locals —
// level-invariant loads (subscripts free of the inner variable) once per
// horizontal point before the vertical loop, repeated element loads once
// per level. Binding a pure load to a local changes no arithmetic, only
// when memory is read; that is observationally identical under the
// binder contract that distinct DSL array names bind non-overlapping
// storage (Fortran dummy-argument semantics — the same assumption DaCe
// makes, and the interpreter's own Bindings maps satisfy in every
// production binding).

// BlockedKernel is the result of emitting one kernel with the blocked
// backend: the function text plus the parameter lists a caller must bind,
// in signature order.
type BlockedKernel struct {
	Name     string   // kernel name as written in the DSL
	FuncName string   // emitted binder name, Bind<CamelCase(Name)>
	Fields   []string // []float64 parameters, in signature order (sorted)
	Tables   []string // []int parameters, in signature order (sorted)
	HasInner bool     // kernel has a vertical loop (nInner parameter)
	Source   string   // emitted Go source of the binder function
	Hoists   int      // distinct index lookups hoisted per horizontal point
	Groups   int      // fused statement groups
	NeedsSq  bool     // emitted code calls the sq() helper
	NeedsPow bool     // emitted code calls math.Pow
}

// CodegenGoBlocked emits the kernel as a slice-backed, NPROMA-blocked
// binder. The bindings supply only array kinds and ranks (which names are
// index tables, which are 1- or 2-D fields); extents are runtime inputs of
// the emitted code, so one emission serves every grid size.
func CodegenGoBlocked(g *SDFG, b *Bindings) (*BlockedKernel, error) {
	if err := g.Validate(b); err != nil {
		return nil, err
	}
	k := g.K
	bk := &BlockedKernel{
		Name:     k.Name,
		FuncName: "Bind" + camel(k.Name),
		HasInner: k.InnerVar != "",
	}

	// Collect referenced arrays and split them by kind, sorted — the
	// signature contract callers bind against.
	names, writes := map[string]bool{}, map[string]bool{}
	for _, st := range k.Stmts {
		names[st.Writes()], writes[st.Writes()] = true, true
		for r := range st.Reads() {
			names[r] = true
		}
	}
	for n := range names {
		if b.IsTable(n) {
			bk.Tables = append(bk.Tables, n)
		} else {
			bk.Fields = append(bk.Fields, n)
			if !bk.HasInner && b.Dims[n] == 2 {
				return nil, fmt.Errorf("sdfg: blocked codegen: kernel %s has no vertical loop but binds 2-D array %q", k.Name, n)
			}
		}
	}
	sort.Strings(bk.Fields)
	sort.Strings(bk.Tables)

	// A block body sweeps every fused group for one horizontal point
	// before the next, while other blocks run theirs: a dependence between
	// horizontal points — an array the kernel writes, referenced anywhere
	// but at the outer loop variable itself — can be ordered by neither.
	// Vertical offsets stay inside the point's column, which the group
	// split orders.
	var crossing error
	for _, st := range k.Stmts {
		walkRefs(st, func(a ArrayRef, _ bool) {
			if v, ok := a.Subs[0].(VarRef); writes[a.Name] && !(ok && v.Name == k.OuterVar) && crossing == nil {
				crossing = fmt.Errorf("sdfg: blocked codegen: kernel %s references its own output as %s; a dependence between horizontal points cannot be ordered inside a block body", k.Name, a.String())
			}
		})
	}
	if crossing != nil {
		return nil, crossing
	}

	em := &blockedEmitter{k: k, b: b, bk: bk}
	if err := em.planHoists(g); err != nil {
		return nil, err
	}
	bk.Hoists = len(em.order)

	var out strings.Builder
	fmt.Fprintf(&out, "// %s binds kernel %q to concrete storage and returns its\n", bk.FuncName, k.Name)
	fmt.Fprintf(&out, "// NPROMA block body for sched.Run over the horizontal index %s.\n", k.OuterVar)
	groups := g.FusableGroups()
	bk.Groups = len(groups)
	_, occ := g.IndexLookups(b.IsTable)
	fmt.Fprintf(&out, "// Optimisation summary: %d statement(s) in %d fused group(s), %d distinct\n",
		len(k.Stmts), bk.Groups, bk.Hoists)
	fmt.Fprintf(&out, "// index lookup(s) hoisted per point (naive backends execute %d per point per level).\n", occ)
	fmt.Fprintf(&out, "func %s(", bk.FuncName)
	var params []string
	if bk.HasInner {
		params = append(params, "nInner int")
	}
	if len(bk.Fields) > 0 {
		ps := make([]string, len(bk.Fields))
		for i, f := range bk.Fields {
			ps[i] = em.pname(f)
		}
		params = append(params, strings.Join(ps, ", ")+" []float64")
	}
	if len(bk.Tables) > 0 {
		ps := make([]string, len(bk.Tables))
		for i, t := range bk.Tables {
			ps[i] = em.pname(t)
		}
		params = append(params, strings.Join(ps, ", ")+" []int")
	}
	fmt.Fprintf(&out, "%s) func(lo, hi int) {\n", strings.Join(params, ", "))
	fmt.Fprintf(&out, "\treturn func(lo, hi int) {\n")
	fmt.Fprintf(&out, "\t\tfor %s := lo; %s < hi; %s++ {\n", k.OuterVar, k.OuterVar, k.OuterVar)

	// Hoist prologue, in dependency order (a nested lookup like
	// icell1(iel1(jc)) must come after the iel1(jc) slot it consumes).
	for _, di := range em.order {
		ar := em.refs[di]
		sub, err := em.intOrCast(ar.Subs[0])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&out, "\t\t\th%d := %s[%s] // hoisted: %s\n", em.slot[em.distinct[di]], em.pname(ar.Name), sub, em.distinct[di])
	}

	for gi, group := range groups {
		fmt.Fprintf(&out, "\t\t\t// fused group %d\n", gi)
		inv, rep, count, err := em.cseLoads(group, writes)
		if err != nil {
			return nil, err
		}
		em.subst = map[string]string{}
		for _, ar := range inv {
			init, err := em.renderLoad(ar)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("s%d", em.ninv)
			em.ninv++
			fmt.Fprintf(&out, "\t\t\t%s := %s // level-invariant: %s\n", name, init, ar.String())
			em.subst[ar.String()] = name
		}
		indent := "\t\t\t"
		if bk.HasInner {
			fmt.Fprintf(&out, "\t\t\tfor %s := %d; %s < nInner; %s++ {\n", k.InnerVar, k.InnerLo, k.InnerVar, k.InnerVar)
			indent = "\t\t\t\t"
		}
		for _, ar := range rep {
			init, err := em.renderLoad(ar)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("v%d", em.nrep)
			em.nrep++
			fmt.Fprintf(&out, "%s%s := %s // reused %d×: %s\n", indent, name, init, count[ar.String()], ar.String())
			em.subst[ar.String()] = name
		}
		for _, si := range group {
			st := k.Stmts[si]
			lhsIdx, err := em.index(st.LHS)
			if err != nil {
				return nil, err
			}
			rhs, err := em.floatExpr(st.RHS)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(&out, "%s%s[%s] = %s\n", indent, em.pname(st.LHS.Name), lhsIdx, rhs)
		}
		if bk.HasInner {
			fmt.Fprintf(&out, "\t\t\t}\n")
		}
		em.subst = nil
	}
	fmt.Fprintf(&out, "\t\t}\n\t}\n}\n")
	bk.Source = out.String()
	return bk, nil
}

// CodegenPackage assembles emitted kernels into one compilable Go file (a
// generated package), gofmt-formatted and byte-deterministic.
func CodegenPackage(pkg string, kernels []*BlockedKernel) ([]byte, error) {
	var out strings.Builder
	out.WriteString("// Code generated by icoearth/cmd/codegen from internal/sdfg kernel sources. DO NOT EDIT.\n\n")
	fmt.Fprintf(&out, "// Package %s holds the SDFG-generated, NPROMA-blocked production\n", pkg)
	fmt.Fprintf(&out, "// kernels: slice-backed binders whose block bodies dispatch on the\n")
	fmt.Fprintf(&out, "// sched worker pool. See internal/sdfg/codegen_blocked.go for the\n")
	fmt.Fprintf(&out, "// emitter and DESIGN.md §15 for the ABI and bit-identity contract.\n")
	fmt.Fprintf(&out, "package %s\n\n", pkg)
	needsSq, needsPow := false, false
	for _, bk := range kernels {
		needsSq = needsSq || bk.NeedsSq
		needsPow = needsPow || bk.NeedsPow
	}
	if needsPow {
		out.WriteString("import \"math\"\n\n")
	}
	if needsSq {
		out.WriteString("func sq(x float64) float64 { return x * x }\n\n")
	}
	for i, bk := range kernels {
		if i > 0 {
			out.WriteString("\n")
		}
		out.WriteString(bk.Source)
	}
	src, err := format.Source([]byte(out.String()))
	if err != nil {
		return nil, fmt.Errorf("sdfg: generated package does not format: %w", err)
	}
	return src, nil
}

// blockedEmitter carries the per-kernel emission state.
type blockedEmitter struct {
	k  *Kernel
	b  *Bindings
	bk *BlockedKernel

	distinct []string       // distinct lookups, sorted (IndexLookups order)
	refs     []ArrayRef     // reparsed form of each distinct lookup
	order    []int          // emission order: indices into distinct, topologically sorted
	slot     map[string]int // lookup string -> h<N> slot number

	subst map[string]string // load CSE: canonical float ref -> local, live per group
	ninv  int               // next s<N> level-invariant local
	nrep  int               // next v<N> per-level local
}

// cseLoads scans one fused group for float loads that can be bound to
// locals without changing any arithmetic: loads of arrays the kernel
// never writes, whose subscripts contain no float array references (so
// every initializer renders standalone, with no nested-local ordering).
// Returns, in first-use order, the level-invariant refs — hoisted out of
// the vertical loop whenever one exists, otherwise only when reused —
// and the repeated inner-dependent refs, plus the per-ref use counts.
func (em *blockedEmitter) cseLoads(group []int, writes map[string]bool) (inv, rep []ArrayRef, count map[string]int, err error) {
	count = map[string]int{}
	var order []ArrayRef
	var collect func(e Expr)
	collect = func(e Expr) {
		switch v := e.(type) {
		case ArrayRef:
			if em.b.IsTable(v.Name) {
				if _, hoisted := em.slot[v.String()]; hoisted {
					return // renders as its h<N> slot; subscripts never re-evaluated
				}
			} else if !writes[v.Name] && em.cseable(v) {
				if count[v.String()] == 0 {
					order = append(order, v)
				}
				count[v.String()]++
			}
			for _, s := range v.Subs {
				collect(s)
			}
		case BinOp:
			collect(v.L)
			collect(v.R)
		case Neg:
			collect(v.X)
		}
	}
	for _, si := range group {
		st := em.k.Stmts[si]
		for _, s := range st.LHS.Subs {
			collect(s)
		}
		collect(st.RHS)
	}
	for _, ar := range order {
		switch {
		case !em.dependsOnInner(ar):
			if em.bk.HasInner || count[ar.String()] > 1 {
				inv = append(inv, ar)
			}
		case count[ar.String()] > 1:
			rep = append(rep, ar)
		}
	}
	return inv, rep, count, nil
}

// cseable reports whether the ref's subscripts are free of float array
// loads — the precondition for binding it to a local in one line.
func (em *blockedEmitter) cseable(a ArrayRef) bool {
	ok := true
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case ArrayRef:
			if !em.b.IsTable(v.Name) {
				ok = false
				return
			}
			for _, s := range v.Subs {
				walk(s)
			}
		case BinOp:
			walk(v.L)
			walk(v.R)
		case Neg:
			walk(v.X)
		}
	}
	for _, s := range a.Subs {
		walk(s)
	}
	return ok
}

// dependsOnInner reports whether the ref's rendered subscripts mention
// the inner loop variable. Hoisted lookups render as their h<N> slot, so
// their own subscripts are pruned from the walk.
func (em *blockedEmitter) dependsOnInner(a ArrayRef) bool {
	dep := false
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case VarRef:
			if em.k.InnerVar != "" && v.Name == em.k.InnerVar {
				dep = true
			}
		case ArrayRef:
			if _, hoisted := em.slot[v.String()]; hoisted && em.b.IsTable(v.Name) {
				return
			}
			for _, s := range v.Subs {
				walk(s)
			}
		case BinOp:
			walk(v.L)
			walk(v.R)
		case Neg:
			walk(v.X)
		}
	}
	for _, s := range a.Subs {
		walk(s)
	}
	return dep
}

// renderLoad renders a float array load as the local initializer of a
// CSE slot (substitution never applies to the slot's own ref).
func (em *blockedEmitter) renderLoad(a ArrayRef) (string, error) {
	idx, err := em.index(a)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s[%s]", em.pname(a.Name), idx), nil
}

// planHoists reparses the distinct index lookups and orders them so that
// every lookup is emitted after the lookups its subscript consumes.
func (em *blockedEmitter) planHoists(g *SDFG) error {
	distinct, _ := g.IndexLookups(em.b.IsTable)
	em.distinct = distinct
	em.refs = make([]ArrayRef, len(distinct))
	at := map[string]int{}
	for i, d := range distinct {
		e, err := parseExpr(d)
		if err != nil {
			return fmt.Errorf("sdfg: internal: reparse hoisted lookup %q: %w", d, err)
		}
		em.refs[i] = e.(ArrayRef)
		at[d] = i
	}
	deps := make([][]int, len(distinct))
	for i, ar := range em.refs {
		var walk func(e Expr)
		walk = func(e Expr) {
			switch v := e.(type) {
			case ArrayRef:
				if j, ok := at[v.String()]; ok && j != i {
					deps[i] = append(deps[i], j)
				}
				for _, s := range v.Subs {
					walk(s)
				}
			case BinOp:
				walk(v.L)
				walk(v.R)
			case Neg:
				walk(v.X)
			}
		}
		for _, s := range ar.Subs {
			walk(s)
		}
	}
	emitted := make([]bool, len(distinct))
	em.slot = map[string]int{}
	for len(em.order) < len(distinct) {
		picked := -1
		for i := range distinct {
			if emitted[i] {
				continue
			}
			ready := true
			for _, j := range deps[i] {
				if !emitted[j] {
					ready = false
					break
				}
			}
			if ready {
				picked = i
				break
			}
		}
		if picked < 0 {
			return fmt.Errorf("sdfg: cyclic index lookups in kernel %s", em.k.Name)
		}
		emitted[picked] = true
		em.slot[em.distinct[picked]] = len(em.order)
		em.order = append(em.order, picked)
	}
	return nil
}

// pname maps a DSL array name to its Go parameter name, dodging the few
// identifiers the emitted scaffold owns.
func (em *blockedEmitter) pname(name string) string {
	s := sanitize(name)
	switch s {
	case "nInner", "lo", "hi", "sq", "math", em.k.OuterVar, em.k.InnerVar,
		"break", "case", "chan", "const", "continue", "default", "defer",
		"else", "fallthrough", "for", "func", "go", "goto", "if", "import",
		"interface", "map", "package", "range", "return", "select", "struct",
		"switch", "type", "var", "int", "float64":
		return "a_" + s
	}
	if len(s) > 1 && (s[0] == 'h' || s[0] == 's' || s[0] == 'v') && allDigits(s[1:]) {
		return "a_" + s // would collide with hoist or CSE slots h0, s0, v0, ...
	}
	return s
}

func allDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// intExpr renders e as a Go int expression when it is exactly computable
// in integer arithmetic (loop variables, integral literals, hoisted or
// direct table lookups, and +,-,* thereof). Equivalence with the
// interpreter's float64-evaluate-then-truncate holds because index values
// stay far below 2⁵³.
func (em *blockedEmitter) intExpr(e Expr) (string, bool) {
	switch v := e.(type) {
	case NumLit:
		// Bit-pattern integrality test (uint64 compare, not float ==): the
		// literal renders as an int only when the round-trip through int64
		// reproduces its exact bits, which also keeps -0.0 a float literal.
		if math.Float64bits(v.Val) == math.Float64bits(float64(int64(v.Val))) {
			return fmt.Sprintf("%d", int64(v.Val)), true
		}
	case VarRef:
		if v.Name == em.k.OuterVar || v.Name == em.k.InnerVar {
			return v.Name, true
		}
	case ArrayRef:
		if em.b.IsTable(v.Name) {
			if si, ok := em.slot[v.String()]; ok {
				return fmt.Sprintf("h%d", si), true
			}
			sub, err := em.intOrCast(v.Subs[0])
			if err != nil {
				return "", false
			}
			return fmt.Sprintf("%s[%s]", em.pname(v.Name), sub), true
		}
	case BinOp:
		if v.Op == '+' || v.Op == '-' || v.Op == '*' {
			l, lok := em.intExpr(v.L)
			r, rok := em.intExpr(v.R)
			if lok && rok {
				return fmt.Sprintf("(%s %c %s)", l, v.Op, r), true
			}
		}
	}
	return "", false
}

// intOrCast renders e as an int: natively when possible, otherwise as a
// truncating cast of the float64 form (matching the interpreter).
func (em *blockedEmitter) intOrCast(e Expr) (string, error) {
	if s, ok := em.intExpr(e); ok {
		return s, nil
	}
	f, err := em.floatExpr(e)
	if err != nil {
		return "", err
	}
	return "int(" + f + ")", nil
}

// index renders the flat index of an array reference.
func (em *blockedEmitter) index(a ArrayRef) (string, error) {
	dims, ok := em.b.Dims[a.Name]
	if !ok {
		return "", fmt.Errorf("sdfg: unbound array %q", a.Name)
	}
	if dims != len(a.Subs) {
		return "", fmt.Errorf("sdfg: array %q expects %d subscripts, got %d", a.Name, dims, len(a.Subs))
	}
	s0, err := em.intOrCast(a.Subs[0])
	if err != nil {
		return "", err
	}
	if dims == 1 {
		return s0, nil
	}
	s1, err := em.intOrCast(a.Subs[1])
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s*nInner+%s", s0, s1), nil
}

// floatExpr renders e as a float64 expression, preserving the parse tree's
// association exactly (every binary operation parenthesised).
func (em *blockedEmitter) floatExpr(e Expr) (string, error) {
	switch v := e.(type) {
	case NumLit:
		s := fmt.Sprintf("%g", v.Val)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s, nil
	case VarRef:
		if v.Name == em.k.OuterVar || v.Name == em.k.InnerVar {
			return "float64(" + v.Name + ")", nil
		}
		return "", fmt.Errorf("sdfg: unknown variable %q", v.Name)
	case Neg:
		x, err := em.floatExpr(v.X)
		return "(-" + x + ")", err
	case BinOp:
		if v.Op == '^' {
			l, err := em.floatExpr(v.L)
			if err != nil {
				return "", err
			}
			if n, ok := v.R.(NumLit); ok && n.Val == 2 {
				em.bk.NeedsSq = true
				return fmt.Sprintf("sq(%s)", l), nil
			}
			r, err := em.floatExpr(v.R)
			if err != nil {
				return "", err
			}
			em.bk.NeedsPow = true
			return fmt.Sprintf("math.Pow(%s, %s)", l, r), nil
		}
		l, err := em.floatExpr(v.L)
		if err != nil {
			return "", err
		}
		r, err := em.floatExpr(v.R)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %c %s)", l, v.Op, r), nil
	case ArrayRef:
		if em.b.IsTable(v.Name) {
			s, ok := em.intExpr(v)
			if !ok {
				return "", fmt.Errorf("sdfg: table %q subscript not integer-renderable", v.Name)
			}
			return "float64(" + s + ")", nil
		}
		if local, ok := em.subst[v.String()]; ok {
			return local, nil
		}
		idx, err := em.index(v)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s[%s]", em.pname(v.Name), idx), nil
	}
	return "", fmt.Errorf("sdfg: unknown expression %T", e)
}

// sanitize maps a DSL name onto the Go identifier alphabet.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}

// camel converts a kernel name like "perot_uc" to "PerotUc".
func camel(s string) string {
	var out strings.Builder
	up := true
	for _, r := range sanitize(s) {
		if r == '_' {
			up = true
			continue
		}
		if up {
			if r >= 'a' && r <= 'z' {
				r = r - 'a' + 'A'
			}
			up = false
		}
		out.WriteRune(r)
	}
	if out.Len() == 0 {
		return "Kernel"
	}
	return out.String()
}
