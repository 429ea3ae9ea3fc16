package sdfg

import (
	"fmt"
	"math"
)

// Bindings connects the abstract array names of a kernel to concrete
// storage. Field arrays are float64 slices with either one subscript
// (horizontal only) or two (horizontal × vertical, level-fastest layout as
// everywhere in icoearth). Index tables are int slices with one subscript,
// used inside other arrays' subscripts (the icosahedral neighbour tables).
type Bindings struct {
	NOuter int // horizontal extent
	NInner int // vertical extent (1 for 2-D kernels)

	Fields map[string][]float64 // flattened [h*NInner + k] or [h]
	Dims   map[string]int       // 1 or 2 subscripts
	Tables map[string][]int     // index tables (1 subscript)
}

// NewBindings creates an empty binding set for the given extents.
func NewBindings(nOuter, nInner int) *Bindings {
	return &Bindings{
		NOuter: nOuter,
		NInner: nInner,
		Fields: map[string][]float64{},
		Dims:   map[string]int{},
		Tables: map[string][]int{},
	}
}

// BindField registers a field array with the given number of subscripts.
func (b *Bindings) BindField(name string, data []float64, dims int) {
	b.Fields[name] = data
	b.Dims[name] = dims
}

// BindTable registers an index table (values are 0-based indices).
func (b *Bindings) BindTable(name string, data []int) {
	b.Tables[name] = data
	b.Dims[name] = 1
}

func (b *Bindings) has(name string) bool {
	if _, ok := b.Fields[name]; ok {
		return true
	}
	_, ok := b.Tables[name]
	return ok
}

// IsTable reports whether name is bound as an index table.
func (b *Bindings) IsTable(name string) bool {
	_, ok := b.Tables[name]
	return ok
}

// Interpret executes the kernel by walking the expression trees once per
// element per statement: one full sweep over the iteration space per
// statement, no fusion, no lookup hoisting — the behavioural stand-in for
// the unfused directive-annotated loops, and the oracle the emitted Go of
// codegen_blocked.go is held to bit for bit.
func Interpret(g *SDFG, b *Bindings) error {
	if err := g.Validate(b); err != nil {
		return err
	}
	k := g.K
	inner := b.NInner
	if k.InnerVar == "" {
		inner = 1
	}
	for _, st := range k.Stmts {
		for jc := 0; jc < b.NOuter; jc++ {
			for jk := k.InnerLo; jk < inner; jk++ {
				v, err := evalExpr(st.RHS, jc, jk, k, b)
				if err != nil {
					return err
				}
				if err := storeLHS(st.LHS, jc, jk, k, b, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func evalExpr(e Expr, jc, jk int, k *Kernel, b *Bindings) (float64, error) {
	switch v := e.(type) {
	case NumLit:
		return v.Val, nil
	case VarRef:
		switch v.Name {
		case k.OuterVar:
			return float64(jc), nil
		case k.InnerVar:
			return float64(jk), nil
		}
		return 0, fmt.Errorf("sdfg: unknown variable %q", v.Name)
	case Neg:
		x, err := evalExpr(v.X, jc, jk, k, b)
		return -x, err
	case BinOp:
		l, err := evalExpr(v.L, jc, jk, k, b)
		if err != nil {
			return 0, err
		}
		r, err := evalExpr(v.R, jc, jk, k, b)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			return l / r, nil
		case '^':
			if r == 2 {
				return l * l, nil
			}
			return math.Pow(l, r), nil
		}
		return 0, fmt.Errorf("sdfg: unknown op %q", string(v.Op))
	case ArrayRef:
		idx, err := flatIndex(v, jc, jk, k, b)
		if err != nil {
			return 0, err
		}
		if tab, ok := b.Tables[v.Name]; ok {
			return float64(tab[idx]), nil
		}
		return b.Fields[v.Name][idx], nil
	}
	return 0, fmt.Errorf("sdfg: unknown expression %T", e)
}

// flatIndex resolves the subscripts of an array reference to a flat index.
func flatIndex(a ArrayRef, jc, jk int, k *Kernel, b *Bindings) (int, error) {
	subs := make([]int, len(a.Subs))
	for i, s := range a.Subs {
		v, err := evalExpr(s, jc, jk, k, b)
		if err != nil {
			return 0, err
		}
		subs[i] = int(v)
	}
	dims, ok := b.Dims[a.Name]
	if !ok {
		return 0, fmt.Errorf("sdfg: unbound array %q", a.Name)
	}
	if dims != len(subs) {
		return 0, fmt.Errorf("sdfg: array %q expects %d subscripts, got %d", a.Name, dims, len(subs))
	}
	if dims == 1 {
		return subs[0], nil
	}
	return subs[0]*b.NInner + subs[1], nil
}

func storeLHS(a ArrayRef, jc, jk int, k *Kernel, b *Bindings, v float64) error {
	idx, err := flatIndex(a, jc, jk, k, b)
	if err != nil {
		return err
	}
	f, ok := b.Fields[a.Name]
	if !ok {
		return fmt.Errorf("sdfg: cannot assign to index table %q", a.Name)
	}
	f[idx] = v
	return nil
}
