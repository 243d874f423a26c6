// Package audit holds repository-wide hygiene gates that need no code
// of their own: tests that read the source tree.
package audit

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed lists exported functions and methods under internal/ that may
// stay without a production reference, each with its reason. Keys are
// "<package dir>.<Func>" or "<package dir>.<Type>.<Method>".
var allowed = map[string]string{
	// An export_test.go serves only its own package's tests; these three
	// are test hooks another package's tests call.
	"internal/bench.World.StoreOf":         "internal/check's tests read a bench.World's final replica state through it",
	"internal/tpcw.Workload.Interactions":  "internal/bench's TPC-W run test asserts the interaction mix through it",
	"internal/transport.TCP.DropPeerConns": "internal/core's vote-transport test tears connections down mid-stream with it",
}

// stdlibInterface names methods that satisfy standard-library
// interfaces (error, fmt.Stringer, sort.Interface, heap.Interface,
// errors.Is): the caller is the standard library, by interface.
var stdlibInterface = map[string]bool{
	"Error": true, "String": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestExportedFuncsHaveProductionCallers fails when an exported
// function or method declared under internal/ is referenced by no
// non-test file of the repository (benchmark/, cmd/ and examples/
// count as production): such an export is either dead or a test hook,
// and a test hook belongs behind an export_test.go. References are
// matched by name — a selector x.Name anywhere, or a bare Name in the
// declaring package — so a same-named method elsewhere can hide a dead
// one; what the gate reports is always real.
func TestExportedFuncsHaveProductionCallers(t *testing.T) {
	const root = "../.."
	type decl struct {
		key, dir, name string
		pos            token.Position
	}
	var decls []decl
	selected := map[string]bool{}        // x.Name, anywhere
	bare := map[string]map[string]bool{} // package dir -> Name used unqualified there
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories (.git, the benchmark's .bench_build
			// cache), fixtures and the benchmark's output hold no source.
			name := d.Name()
			if (strings.HasPrefix(name, ".") && name != "..") || name == "testdata" || strings.HasSuffix(filepath.ToSlash(path), "benchmark/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		dir = filepath.ToSlash(dir)
		if bare[dir] == nil {
			bare[dir] = map[string]bool{}
		}
		declared := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declared[n.Name] = true
				if !strings.HasPrefix(dir, "internal/") || !n.Name.IsExported() {
					break
				}
				key := dir + "." + n.Name.Name
				if n.Recv != nil {
					recv := recvName(n.Recv.List[0].Type)
					if !ast.IsExported(recv) || stdlibInterface[n.Name.Name] {
						break
					}
					key = dir + "." + recv + "." + n.Name.Name
				}
				decls = append(decls, decl{key, dir, n.Name.Name, fset.Position(n.Pos())})
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					bare[dir][n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var dead []string
	for _, d := range decls {
		seen[d.key] = true
		if selected[d.name] || bare[d.dir][d.name] {
			continue
		}
		if _, ok := allowed[d.key]; ok {
			continue
		}
		dead = append(dead, d.pos.String()+": "+d.key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no reference outside _test.go files: delete it, unexport it behind an export_test.go, or allow-list it with a reason", d)
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allow-list entry %s names nothing declared under internal/", key)
		}
	}
}

// recvName returns the receiver's type name (T for T, *T and T[K]).
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
