package analysis

// kernel.go is the shared capture/side-effect helper the determinism
// analyzers (blockshare, detreduce, kernelcapture) build on. It answers
// three questions about a package:
//
//  1. Which function literals are parallel kernel bodies? Both forms the
//     tree uses are found: inline literals at a sched.Run / RunIndexed /
//     RunWidth / ReduceSum call site, and the PR-5 idiom of pre-bound
//     closures stored in struct fields ("d.parKE = func(lo, hi int)
//     {...}" bound once, dispatched every step).
//
//  2. Which values inside a body are *block-derived* — provably functions
//     of the body's [lo,hi) arguments (and the RunIndexed slot id)? A
//     fixpoint seeds the parameters and propagates through assignments,
//     loop variables and stripe-slice reslicing ("z := d.zeta[k*nv :
//     (k+1)*nv]" with derived k makes z derived), so the repo's
//     per-level and per-slot scratch idioms verify without annotations.
//
//  3. What does a body write, including through calls? A callgraph-lite
//     follows same-package calls that receive derived arguments
//     (ecosystemColumns(lo, hi, ...), mixColumn(..., thA, ...)),
//     re-deriving the callee's parameters from the argument expressions,
//     so the contract check reaches helper functions without a full
//     interprocedural engine.
//
// The sched contract being encoded (see internal/sched/pool.go): a body
// may write only to indices in its own block, per-slot scratch, or
// body-local state; everything else is shared across concurrently
// executing blocks.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// kernelKind distinguishes the dispatch entry points, because the legal
// side effects differ: ReduceSum bodies return a partial and should
// mutate nothing shared, Run/RunIndexed bodies write block-owned slices.
type kernelKind int

const (
	kindRun kernelKind = iota
	kindIndexed
	kindReduce
)

func (k kernelKind) String() string {
	switch k {
	case kindIndexed:
		return "sched.RunIndexed"
	case kindReduce:
		return "sched.ReduceSum"
	default:
		return "sched.Run"
	}
}

// kernel is one parallel body found in the package under analysis.
type kernel struct {
	lit  *ast.FuncLit
	kind kernelKind
	// enclosing is the function declaration containing the literal
	// (binding site for pre-bound kernels, dispatch site for inline).
	enclosing *ast.FuncDecl
	// preBound is true when the literal is assigned to a variable or
	// struct field and dispatched later, rather than passed directly to
	// the dispatch call. Pre-bound closures outlive their binding scope,
	// which makes loop-variable and mutable-local capture dangerous in a
	// way it is not for an inline, synchronously dispatched literal.
	preBound bool
	// derived is the block-provenance set: objects whose value is a
	// function of the body's lo/hi/slot parameters.
	derived map[types.Object]bool
}

// schedDispatchNames maps the sched entry points to the argument index
// of the body parameter and the kernel kind.
var schedDispatchNames = map[string]struct {
	bodyArg int
	kind    kernelKind
}{
	"Run":        {1, kindRun},
	"RunIndexed": {1, kindIndexed},
	"RunWidth":   {2, kindRun},
	"ReduceSum":  {1, kindReduce},
}

// schedDispatch reports whether call is a sched pool dispatch
// (package-level sched.Run/... or a method on sched.Pool) and returns
// the body argument and kind.
func schedDispatch(pass *Pass, call *ast.CallExpr) (body ast.Expr, kind kernelKind, ok bool) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, found := pass.TypesInfo.Selections[fun]; found {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	}
	fn, isFn := obj.(*types.Func)
	if !isFn || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/sched") {
		return nil, 0, false
	}
	d, known := schedDispatchNames[fn.Name()]
	if !known || len(call.Args) <= d.bodyArg {
		return nil, 0, false
	}
	return call.Args[d.bodyArg], d.kind, true
}

// schedKernels finds every kernel body of the package: inline literals
// at dispatch sites plus literals bound to objects that are dispatched
// somewhere in the package. Each kernel comes with its derived set
// already computed.
func schedKernels(pass *Pass) []*kernel {
	var kernels []*kernel
	// Objects (variables or struct fields) that are passed to a
	// dispatch entry point somewhere in the package, with the dispatch
	// kind. These are the pre-bound kernel handles.
	dispatched := map[types.Object]kernelKind{}

	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		var enclosing *ast.FuncDecl
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				enclosing = v
			case *ast.CallExpr:
				body, kind, ok := schedDispatch(pass, v)
				if !ok {
					return true
				}
				if lit, isLit := body.(*ast.FuncLit); isLit {
					kernels = append(kernels, &kernel{lit: lit, kind: kind, enclosing: enclosing})
					return true
				}
				if obj := exprObject(pass, body); obj != nil {
					dispatched[obj] = kind
				}
			}
			return true
		})
	}
	if len(dispatched) > 0 {
		for _, file := range pass.Files {
			if isTestFile(pass, file) {
				continue
			}
			var enclosing *ast.FuncDecl
			ast.Inspect(file, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.FuncDecl:
					enclosing = v
				case *ast.AssignStmt:
					for i, lhs := range v.Lhs {
						if i >= len(v.Rhs) {
							break
						}
						lit, isLit := v.Rhs[i].(*ast.FuncLit)
						if !isLit {
							continue
						}
						obj := exprObject(pass, lhs)
						if obj == nil {
							continue
						}
						if kind, found := dispatched[obj]; found {
							kernels = append(kernels, &kernel{
								lit: lit, kind: kind, enclosing: enclosing, preBound: true,
							})
						}
					}
				}
				return true
			})
		}
	}
	for _, k := range kernels {
		k.derived = derivedSet(pass, k.lit)
	}
	return kernels
}

// exprObject resolves an expression used as a value to the object it
// names: a plain variable or a struct field selected on any receiver
// (field objects are shared by all instances of the type, which is
// exactly the granularity pre-bound kernel handles need).
func exprObject(pass *Pass, e ast.Expr) types.Object {
	switch v := e.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[v]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[v]
	case *ast.SelectorExpr:
		return exprObject(pass, v.Sel)
	case *ast.ParenExpr:
		return exprObject(pass, v.X)
	}
	return nil
}

// isTestFile reports whether file is a _test.go file.
func isTestFile(pass *Pass, file *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go")
}

// derivedSet seeds a body's parameters (lo, hi, and the RunIndexed
// slot) as block-derived and runs the propagation fixpoint over the
// body.
func derivedSet(pass *Pass, lit *ast.FuncLit) map[types.Object]bool {
	derived := map[types.Object]bool{}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, id := range f.Names {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}
	propagateDerived(pass, lit.Body, derived)
	return derived
}

// propagateDerived grows derived to a fixpoint over body: an object
// assigned or re-sliced from an expression mentioning a derived object
// becomes derived ("c := lo", "z := zeta[k*nv:(k+1)*nv]"), and the
// loop variables of a range over a derived slice are derived (positions
// within block-owned storage).
func propagateDerived(pass *Pass, body ast.Node, derived map[types.Object]bool) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if v.Tok != token.DEFINE && v.Tok != token.ASSIGN {
					return true
				}
				for i, lhs := range v.Lhs {
					var rhs ast.Expr
					if len(v.Rhs) == len(v.Lhs) {
						rhs = v.Rhs[i]
					} else {
						rhs = v.Rhs[0] // tuple assignment: share provenance
					}
					obj := exprObject(pass, lhs)
					if obj == nil || derived[obj] {
						continue
					}
					if mentionsDerived(pass, rhs, derived) {
						derived[obj] = true
						changed = true
					}
				}
			case *ast.RangeStmt:
				if !mentionsDerived(pass, v.X, derived) {
					return true
				}
				for _, e := range []ast.Expr{v.Key, v.Value} {
					if e == nil {
						continue
					}
					if obj := exprObject(pass, e); obj != nil && !derived[obj] {
						derived[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

// mentionsDerived reports whether any identifier inside e resolves to a
// derived object.
func mentionsDerived(pass *Pass, e ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && derived[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// localTo reports whether obj is declared inside the node spanning
// [pos,end) — used to classify body-local variables, which are
// per-block-call and therefore always safe to write.
func localTo(obj types.Object, pos, end token.Pos) bool {
	return obj != nil && obj.Pos() >= pos && obj.Pos() < end
}

// write is one mutation found in a kernel body (or a callee reached
// from one).
type write struct {
	target ast.Expr    // the assigned expression
	node   ast.Node    // the statement or call performing the write
	tok    token.Token // token.ASSIGN, compound tokens, token.INC/DEC
}

// forEachWrite invokes fn for every syntactic mutation in body:
// assignment targets, ++/--, and the dst argument of the copy builtin.
func forEachWrite(pass *Pass, body ast.Node, fn func(w write)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				fn(write{target: lhs, node: v, tok: v.Tok})
			}
		case *ast.IncDecStmt:
			fn(write{target: v.X, node: v, tok: v.Tok})
		case *ast.CallExpr:
			if builtinName(pass, v.Fun) == "copy" && len(v.Args) == 2 {
				fn(write{target: v.Args[0], node: v, tok: token.ASSIGN})
			}
		}
		return true
	})
}

// packageFuncs indexes the package's function declarations by their
// types.Func object, the lookup table of the callgraph-lite.
func packageFuncs(pass *Pass) map[types.Object]*ast.FuncDecl {
	funcs := map[types.Object]*ast.FuncDecl{}
	for _, file := range pass.Files {
		if isTestFile(pass, file) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				funcs[obj] = fd
			}
		}
	}
	return funcs
}

// calleeDecl resolves a call to a same-package function or method
// declaration, or nil when the callee is cross-package, a builtin, a
// function value, or an interface method.
func calleeDecl(pass *Pass, call *ast.CallExpr, funcs map[types.Object]*ast.FuncDecl) *ast.FuncDecl {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if sel, found := pass.TypesInfo.Selections[fun]; found {
			obj = sel.Obj()
		} else {
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
	}
	if obj == nil {
		return nil
	}
	return funcs[obj]
}

// calleeDerived builds the derived set of a callee reached from a
// kernel body: each parameter whose argument expression mentions a
// derived object of the caller is itself derived, then the callee's own
// propagation fixpoint runs. This is what lets "ecosystemColumns(lo,
// hi, dt, ...)" and "mixColumn(temp, i, wet, ..., thA, ...)" verify
// against the block contract of their dispatch site.
func calleeDerived(pass *Pass, call *ast.CallExpr, fd *ast.FuncDecl, callerDerived map[types.Object]bool) map[types.Object]bool {
	derived := map[types.Object]bool{}
	var params []*ast.Ident
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, name := range f.Names {
				// A parameter group ("lo, hi int") shares one type but
				// each name matches one positional argument.
				params = append(params, name)
			}
		}
	}
	for i, arg := range call.Args {
		if i >= len(params) {
			break
		}
		if mentionsDerived(pass, arg, callerDerived) {
			if obj := pass.TypesInfo.Defs[params[i]]; obj != nil {
				derived[obj] = true
			}
		}
	}
	propagateDerived(pass, fd.Body, derived)
	return derived
}

// maxCallDepth bounds the callgraph-lite recursion; the tree's kernels
// are at most two calls deep (body -> column helper -> tridiagonal
// solver).
const maxCallDepth = 4

// kernelPackages are the import-path suffixes whose code runs inside
// the simulation loop; the determinism analyzers that scan whole
// packages (nondetseed) restrict themselves to these, leaving
// measurement harnesses (benchmark/, internal/trace) and command
// drivers (cmd/*) free to read wall clocks.
var kernelPackages = []string{
	"internal/atmos", "internal/ocean", "internal/bgc", "internal/land",
	"internal/grid", "internal/sphere", "internal/vertical",
	"internal/coupler", "internal/sched", "internal/par", "internal/exec",
	"internal/sdfg", "internal/restart", "internal/fault",
}

// render formats an expression for a diagnostic message, compactly for
// the shapes kernels actually write (identifiers, field selections,
// indexed elements).
func render(pass *Pass, e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return render(pass, v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return render(pass, v.X) + "[...]"
	case *ast.SliceExpr:
		return render(pass, v.X) + "[...:...]"
	case *ast.StarExpr:
		return "*" + render(pass, v.X)
	case *ast.CallExpr:
		return render(pass, v.Fun) + "(...)"
	}
	return "expression"
}

// simulationPackage reports whether the pass's package is part of the
// simulation loop proper.
func simulationPackage(pass *Pass) bool {
	if pass.Pkg == nil {
		return false
	}
	path := pass.Pkg.Path()
	for _, suf := range kernelPackages {
		if strings.HasSuffix(path, suf) {
			return true
		}
	}
	return false
}
