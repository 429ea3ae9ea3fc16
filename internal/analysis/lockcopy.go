package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockCopy flags by-value transfer of the communicator state of
// internal/par: World owns the lost-rank signal and the sync.Once that
// closes it, and Comm owns a rank's pending-message map, parked fault
// payloads, the foldOut buffer FoldSum's answer travels in and the
// traffic counters. Copying either (parameter, result, receiver or
// struct field) forks that state — a copied World closes its signal a
// second time, a copied Comm answers folds from a buffer its peers are
// not reading and its statistics silently split. Both must travel as
// pointers, the way par.World.Run hands ranks their *Comm. `go vet
// -copylocks` sees only World (the Once); Comm holds no lock, so this
// analyzer is what guards it.
var LockCopy = &Analyzer{
	Name: "lockcopy",
	Doc:  "par.World and par.Comm must be passed by pointer, never copied",
	Run:  runLockCopy,
}

func runLockCopy(pass *Pass) error {
	if pass.TypesInfo == nil {
		return nil
	}
	check := func(fields *ast.FieldList, what string) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			tv, ok := pass.TypesInfo.Types[f.Type]
			if !ok {
				continue
			}
			if name := parStateName(tv.Type); name != "" {
				pass.Reportf(f.Type.Pos(), "%s copies par.%s by value; use *par.%s (the communicator state must be shared, not forked)", what, name, name)
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.FuncDecl:
				check(v.Recv, "receiver")
				check(v.Type.Params, "parameter")
				check(v.Type.Results, "result")
			case *ast.FuncLit:
				check(v.Type.Params, "parameter")
				check(v.Type.Results, "result")
			case *ast.StructType:
				check(v.Fields, "struct field")
			}
			return true
		})
	}
	return nil
}

// parStateName returns "World" or "Comm" when t is one of internal/par's
// stateful communicator types (non-pointer), else "".
func parStateName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if !strings.HasSuffix(path, "internal/par") {
		return ""
	}
	if n := obj.Name(); n == "World" || n == "Comm" {
		return n
	}
	return ""
}
