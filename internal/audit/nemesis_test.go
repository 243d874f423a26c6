package audit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"testing"
)

// TestScenariosNameFaultsNotTheSimulator holds internal/scenario's
// fault schedules to Run's fault surface. Run keeps the simulator in
// its unexported net field, and only the harness names it: harness.go
// (build, the run loop, process faults, heal) and rebalance.go (the
// move's poll timers). Every other file of the package, its _test.go
// files included, names neither that field nor anything of simnet but
// the Stats a Result carries, so a schedule reaches a network fault
// only through the NetFaults interface Run embeds. Each NetFaults
// method is called by some schedule outside the harness: the interface
// lists the faults the schedules inject, and no more.
//
// The check is syntactic (every file is parsed, none type-checked), so
// it runs under -short too; it first confirms that Run has the net
// field and embeds NetFaults, so a rename cannot make it pass vacuously.
func TestScenariosNameFaultsNotTheSimulator(t *testing.T) {
	harness := map[string]bool{"harness.go": true, "rebalance.go": true}
	paths, err := filepath.Glob(filepath.Join("..", "scenario", "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files under internal/scenario (%v)", err)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = f
	}

	faults := map[string]bool{} // NetFaults method -> called by a schedule
	var hasNet, embeds bool
	ast.Inspect(files["harness.go"], func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		switch ts.Name.Name {
		case "NetFaults":
			if it, ok := ts.Type.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						faults[name.Name] = false
					}
				}
			}
		case "Run":
			if st, ok := ts.Type.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					if len(f.Names) == 0 {
						embeds = embeds || isIdent(f.Type, "NetFaults")
					}
					for _, name := range f.Names {
						star, ok := f.Type.(*ast.StarExpr)
						hasNet = hasNet || name.Name == "net" && ok && isSel(star.X, "simnet", "Net")
					}
				}
			}
		}
		return false
	})
	if !hasNet || !embeds || len(faults) == 0 {
		t.Fatalf("internal/scenario/harness.go: want Run to embed NetFaults (an interface) and keep the simulator in a field net *simnet.Net (net field %v, embeds %v, %d methods)",
			hasNet, embeds, len(faults))
	}

	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if harness[name] {
			continue
		}
		f := files[name]
		simnetName := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == module+"/internal/simnet" {
				simnetName = "simnet"
				if imp.Name != nil {
					simnetName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				switch {
				case n.Sel.Name == "net":
					t.Errorf("%s: names Run's simulator field; a schedule injects network faults through Run's NetFaults methods",
						fset.Position(n.Pos()))
				case simnetName != "" && isIdent(n.X, simnetName) && n.Sel.Name != "Stats":
					t.Errorf("%s: names simnet.%s; outside the harness only a Result's simnet.Stats may be named",
						fset.Position(n.Pos()), n.Sel.Name)
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if _, ok := faults[sel.Sel.Name]; ok {
						faults[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	}
	var unused []string
	for m, called := range faults {
		if !called {
			unused = append(unused, m)
		}
	}
	sort.Strings(unused)
	for _, m := range unused {
		t.Errorf("NetFaults.%s is called by no schedule outside the harness; drop it from the interface", m)
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isSel(e ast.Expr, x, sel string) bool {
	s, ok := e.(*ast.SelectorExpr)
	return ok && isIdent(s.X, x) && s.Sel.Name == sel
}
