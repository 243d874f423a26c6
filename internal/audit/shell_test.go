package audit

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// TestStorageNodeTouchesNetInOneShell holds internal/core's storage node
// to its shell (core/acceptor.go, enter/leave): handlers stage, one
// function sends and one arms timers. In the non-test source of
// internal/core, a call of Send or of After on the net field of
// StorageNode occurs in exactly one function each; the field is not
// handed to anything outside those two, where it could be sent on
// unseen; and no closure passed to that After reads the halted field —
// the one check belongs to the shell, not to each timer. What a
// dispatch emits after a failed persist is then a property of that one
// function (core's TestDegradedDispatchSendsNothing), not of every call
// site.
func TestStorageNodeTouchesNetInOneShell(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	l := load(t)
	const pkgPath = module + "/internal/core"
	node, _ := l.pkgs[pkgPath].Scope().Lookup("StorageNode").Type().Underlying().(*types.Struct)
	if node == nil {
		t.Fatal("internal/core has no struct StorageNode")
	}
	field := func(name string) *types.Var {
		for i := 0; i < node.NumFields(); i++ {
			if node.Field(i).Name() == name {
				return node.Field(i)
			}
		}
		t.Fatalf("core.StorageNode has no field %s", name)
		return nil
	}
	net, halted := field("net"), field("halted")
	isField := func(e ast.Expr, f *types.Var) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && l.info.Uses[sel.Sel] == f
	}

	callers := map[string][]string{} // "Send"/"After" -> functions calling it on the net field
	for _, file := range l.files[pkgPath] {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			called := map[ast.Expr]bool{} // uses of the field as the receiver of a call
			passedOn := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					fun, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !isField(fun.X, net) {
						return true
					}
					called[fun.X] = true
					switch fun.Sel.Name {
					case "Send", "After":
						callers[fun.Sel.Name] = append(callers[fun.Sel.Name], fd.Name.Name)
					}
					if fun.Sel.Name != "After" {
						return true
					}
					for _, arg := range n.Args {
						lit, ok := arg.(*ast.FuncLit)
						if !ok {
							continue
						}
						ast.Inspect(lit, func(n ast.Node) bool {
							if e, ok := n.(ast.Expr); ok && isField(e, halted) {
								t.Errorf("%s: a timer closure reads StorageNode.halted; the shell checks it once",
									l.fset.Position(e.Pos()))
							}
							return true
						})
					}
				case *ast.SelectorExpr:
					if isField(n, net) && !called[n] {
						passedOn = true
					}
				}
				return true
			})
			if passedOn {
				callers["Send"] = append(callers["Send"], fd.Name.Name)
			}
		}
	}
	for _, method := range []string{"Send", "After"} {
		fns := callers[method]
		sort.Strings(fns)
		uniq := fns[:0]
		for i, f := range fns {
			if i == 0 || f != fns[i-1] {
				uniq = append(uniq, f)
			}
		}
		if len(uniq) != 1 {
			t.Errorf("StorageNode.net.%s is reached from %d functions of internal/core (%s), want exactly one",
				method, len(uniq), strings.Join(uniq, ", "))
		}
	}
}
