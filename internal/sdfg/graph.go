package sdfg

import (
	"fmt"
	"sort"
	"strings"
)

// SDFG is the stateful dataflow graph over a kernel's statements: nodes
// are statements, edges are dataflow dependencies (RAW/WAR/WAW at array
// granularity). Passes rewrite the statement list; the graph is rebuilt
// after each pass.
type SDFG struct {
	K *Kernel
	// Deps[i] lists statement indices that statement i depends on.
	Deps [][]int
	// Outputs are arrays that must survive dead-code elimination; by
	// default every written array is an output unless marked transient.
	Transients map[string]bool
}

// Build constructs the dataflow graph of a kernel.
func Build(k *Kernel) *SDFG {
	g := &SDFG{K: k, Transients: map[string]bool{}}
	g.rebuild()
	return g
}

func (g *SDFG) rebuild() {
	n := len(g.K.Stmts)
	g.Deps = make([][]int, n)
	lastWrite := map[string]int{}
	lastReads := map[string][]int{}
	for i, st := range g.K.Stmts {
		seen := map[int]bool{}
		add := func(j int) {
			if j != i && !seen[j] {
				seen[j] = true
				g.Deps[i] = append(g.Deps[i], j)
			}
		}
		for r := range st.Reads() {
			if w, ok := lastWrite[r]; ok {
				add(w) // RAW
			}
		}
		w := st.Writes()
		if pw, ok := lastWrite[w]; ok {
			add(pw) // WAW
		}
		for _, r := range lastReads[w] {
			add(r) // WAR
		}
		sort.Ints(g.Deps[i])
		lastWrite[w] = i
		for r := range st.Reads() {
			lastReads[r] = append(lastReads[r], i)
		}
	}
}

// MarkTransient declares an array as kernel-internal scratch: dead-code
// elimination may remove statements whose only effect is writing it.
func (g *SDFG) MarkTransient(name string) { g.Transients[name] = true }

// EliminateDeadCode removes statements that write transient arrays never
// read by any later (surviving) statement. Returns the number removed.
func (g *SDFG) EliminateDeadCode() int {
	removed := 0
	for {
		neededBy := map[string]bool{}
		for _, st := range g.K.Stmts {
			for r := range st.Reads() {
				neededBy[r] = true
			}
		}
		kept := g.K.Stmts[:0]
		changed := false
		for _, st := range g.K.Stmts {
			w := st.Writes()
			if g.Transients[w] && !neededBy[w] {
				removed++
				changed = true
				continue
			}
			kept = append(kept, st)
		}
		g.K.Stmts = kept
		if !changed {
			break
		}
	}
	g.rebuild()
	return removed
}

// FusableGroups partitions the statements into maximal fusable groups: a
// statement joins the current group unless fusing it would reorder an
// element-crossing dependence — it reads an array that an earlier group
// member writes with *different* subscripts (RAW: fusion would read a
// neighbouring element before it is produced), or it writes an array that
// an earlier group member reads with *different* subscripts (WAR: fusion
// would overwrite a neighbouring element before it is consumed).
// Same-subscript dependences are fine — per-element sequential execution
// preserves them.
func (g *SDFG) FusableGroups() [][]int {
	var groups [][]int
	var cur []int
	written := map[string]string{}           // array -> write subscript signature
	readSigs := map[string]map[string]bool{} // array -> read subscript signatures
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
		written = map[string]string{}
		readSigs = map[string]map[string]bool{}
	}
	for i, st := range g.K.Stmts {
		conflict := false
		for r := range st.Reads() {
			sig, ok := written[r]
			if !ok {
				continue
			}
			// Every individual read occurrence must use exactly the
			// subscripts the write used; otherwise fusion would read a
			// neighbouring element before it is produced.
			for _, subs := range readSubscripts(st, r) {
				if subscriptSig([][]Expr{subs}) != sig {
					conflict = true
					break
				}
			}
			if conflict {
				break
			}
		}
		w := st.Writes()
		wsig := subscriptSig([][]Expr{st.LHS.Subs})
		if !conflict {
			// WAR: an earlier group member read this array at subscripts
			// other than the ones we are about to write.
			for sig := range readSigs[w] {
				if sig != wsig {
					conflict = true
					break
				}
			}
		}
		if conflict {
			flush()
		}
		cur = append(cur, i)
		written[w] = wsig
		for r := range st.Reads() {
			for _, subs := range readSubscripts(st, r) {
				if readSigs[r] == nil {
					readSigs[r] = map[string]bool{}
				}
				readSigs[r][subscriptSig([][]Expr{subs})] = true
			}
		}
	}
	flush()
	return groups
}

// readSubscripts collects every subscript list with which statement st
// reads array name, including reads inside the LHS subscripts.
func readSubscripts(st Assign, name string) [][]Expr {
	var out [][]Expr
	var walk func(e Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case ArrayRef:
			if v.Name == name {
				out = append(out, v.Subs)
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
	for _, s := range st.LHS.Subs {
		walk(s)
	}
	walk(st.RHS)
	return out
}

func subscriptSig(subs [][]Expr) string {
	var b strings.Builder
	for _, ss := range subs {
		for _, s := range ss {
			b.WriteString(s.String())
			b.WriteByte(';')
		}
		b.WriteByte('|')
	}
	return b.String()
}

// IndexLookups returns every distinct index-table lookup expression (an
// ArrayRef used inside a subscript whose backing binding is an index
// table) and the total number of occurrences. The bindings decide which
// arrays are index tables.
func (g *SDFG) IndexLookups(isTable func(name string) bool) (distinct []string, occurrences int) {
	seen := map[string]bool{}
	var walkSub func(e Expr, inSubscript bool)
	walkSub = func(e Expr, inSubscript bool) {
		switch v := e.(type) {
		case ArrayRef:
			if inSubscript && isTable(v.Name) {
				occurrences++
				seen[v.String()] = true
			}
			for _, s := range v.Subs {
				walkSub(s, true)
			}
		case BinOp:
			walkSub(v.L, inSubscript)
			walkSub(v.R, inSubscript)
		case Neg:
			walkSub(v.X, inSubscript)
		}
	}
	for _, st := range g.K.Stmts {
		for _, s := range st.LHS.Subs {
			walkSub(s, true)
		}
		walkSub(st.RHS, false)
	}
	for s := range seen {
		distinct = append(distinct, s)
	}
	sort.Strings(distinct)
	return distinct, occurrences
}

// Validate checks that every array referenced by the kernel is bound,
// that no binding's kind contradicts its use (assigning into an index
// table), that each reference's subscript count matches the binding's
// declared rank, and that slices directly indexed by the loop variables
// are long enough for the iteration space. Failures are the typed errors
// of errors.go, each naming the offending array. The deeper legality
// checks live in Verify.
func (g *SDFG) Validate(b *Bindings) error {
	for _, st := range g.K.Stmts {
		for name := range st.Reads() {
			if !b.has(name) {
				return &ErrMissingArray{Kernel: g.K.Name, Array: name}
			}
		}
		if !b.has(st.Writes()) {
			return &ErrMissingArray{Kernel: g.K.Name, Array: st.Writes(), Write: true}
		}
		if b.IsTable(st.Writes()) {
			return &ErrKindMismatch{Kernel: g.K.Name, Array: st.Writes(),
				BoundAs: "index table", UsedAs: "assignment target"}
		}
		var refErr error
		walkRefs(st, func(a ArrayRef, isWrite bool) {
			if refErr != nil || !b.has(a.Name) {
				return
			}
			if dims := b.Dims[a.Name]; dims != len(a.Subs) {
				refErr = fmt.Errorf("sdfg: array %q has rank %d but kernel %s subscripts it with %d index(es)",
					a.Name, dims, g.K.Name, len(a.Subs))
				return
			}
			refErr = g.checkExtent(a, b)
		})
		if refErr != nil {
			return refErr
		}
	}
	return nil
}

// checkExtent verifies a reference whose subscripts are exactly the loop
// variables against the bound slice's length: such a reference sweeps the
// whole iteration space, so the slice must hold it. Gathers through index
// tables (data-dependent extents) are skipped.
func (g *SDFG) checkExtent(a ArrayRef, b *Bindings) error {
	sub0, ok := a.Subs[0].(VarRef)
	if !ok || sub0.Name != g.K.OuterVar {
		return nil
	}
	need := b.NOuter
	if len(a.Subs) == 2 {
		sub1, ok := a.Subs[1].(VarRef)
		if !ok || sub1.Name != g.K.InnerVar {
			return nil
		}
		need = b.NOuter * b.NInner
	}
	have := -1
	if f, ok := b.Fields[a.Name]; ok {
		have = len(f)
	} else if t, ok := b.Tables[a.Name]; ok {
		have = len(t)
	}
	if have >= 0 && have < need {
		return &ErrShortSlice{Kernel: g.K.Name, Array: a.Name, Need: need, Have: have}
	}
	return nil
}
