// Package audit holds repository-wide hygiene gates that need no code
// of their own: tests that read the source tree.
package audit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// allowed lists exported functions and methods under internal/ that may
// stay without a production caller, each with its reason. Keys are
// "<package dir>.<Func>" or "<package dir>.<Type>.<Method>".
var allowed = map[string]string{
	// An export_test.go serves only its own package's tests; these four
	// are test hooks another package's tests call.
	"internal/bench.World.StoreOf":         "internal/check's tests read a bench.World's final replica state through it",
	"internal/kv.AppendEntry":              "the row layout's reference encoder: internal/core's disk tests build store WAL records and snapshot rows with it, and internal/kv's pin the rows the store writes from its stored bytes to it",
	"internal/tpcw.Workload.Interactions":  "internal/bench's TPC-W run test asserts the interaction mix through it",
	"internal/transport.TCP.DropPeerConns": "internal/core's vote-transport test tears connections down mid-stream with it",
}

// stdlibInterface names methods the standard library calls through its
// own interfaces (error, fmt.Stringer, sort.Interface, heap.Interface,
// errors.Is): a caller this scan, which reads only the module, cannot
// see.
var stdlibInterface = map[string]bool{
	"Error": true, "String": true, "Is": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

const module = "mdcc"

// TestExportedFuncsHaveProductionCallers fails when an exported
// function or method declared under internal/ is unreachable from
// production code: such an export is either dead or a test hook, and a
// test hook belongs behind an export_test.go. Reachability is
// type-checked — every non-test file of the module and of benchmark/ is
// loaded with go/types, and a function is live when a chain of
// references leads to it from a root: any main or init, a package-level
// initializer, the root package's exported API (what an importer of the
// module can call), or anything benchmark/ mentions. A call through an
// interface reaches that method on every type of the module
// implementing the interface, so a dead method no longer hides behind a
// live one of the same name.
func TestExportedFuncsHaveProductionCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	l := load(t)

	// Every function declaration is a node; its edges are the functions
	// its body mentions (called or taken as a value).
	refs := map[*types.Func][]*types.Func{}
	var roots, decls []*types.Func
	mentions := func(n ast.Node) (out []*types.Func) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := l.info.Uses[id].(*types.Func); ok {
					out = append(out, f.Origin())
				}
			}
			return true
		})
		return out
	}
	for path, files := range l.files {
		for _, file := range files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					roots = append(roots, mentions(d)...) // package-level initializers
					continue
				}
				f := l.info.Defs[fd.Name].(*types.Func)
				decls = append(decls, f)
				if fd.Body != nil {
					refs[f] = mentions(fd.Body)
				}
				switch {
				case fd.Recv == nil && (f.Name() == "main" || f.Name() == "init"),
					path == module+"/benchmark":
					roots = append(roots, f)
				}
			}
		}
	}
	// The root package's API: its exported functions, and the exported
	// methods of every type it exports — aliases of internal types
	// included, since an alias hands the type's whole method set out.
	var named []*types.Named // every named type of the module, for interface dispatch
	for path, pkg := range l.pkgs {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if path == module && obj.Exported() {
					roots = append(roots, obj)
				}
			case *types.TypeName:
				// An alias's type is what it names (go.mod's go 1.21 keeps
				// go/types from materializing alias nodes).
				n, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				if obj.Pkg() == n.Obj().Pkg() && !types.IsInterface(n) {
					named = append(named, n)
				}
				if path == module && obj.Exported() {
					ms := types.NewMethodSet(types.NewPointer(n))
					for i := 0; i < ms.Len(); i++ {
						if m := ms.At(i).Obj().(*types.Func); m.Exported() {
							roots = append(roots, m.Origin())
						}
					}
				}
			}
		}
	}
	// implementers resolves an interface method to that method on every
	// module type whose pointer implements the interface.
	implementers := func(m *types.Func) (out []*types.Func) {
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			return nil
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		for _, n := range named {
			if n.TypeParams().Len() > 0 {
				continue // no generic type of the module is used through an interface
			}
			if ptr := types.NewPointer(n); types.Implements(ptr, iface) {
				sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name())
				out = append(out, sel.Obj().(*types.Func).Origin())
			}
		}
		return out
	}

	live := map[*types.Func]bool{}
	for work := roots; len(work) > 0; {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		if live[f] {
			continue
		}
		live[f] = true
		work = append(work, refs[f]...)
		work = append(work, implementers(f)...)
	}

	seen := map[string]bool{}
	var dead []string
	for _, f := range decls {
		dir := strings.TrimPrefix(f.Pkg().Path(), module+"/")
		if !strings.HasPrefix(dir, "internal/") || !f.Exported() {
			continue
		}
		key := dir + "." + f.Name()
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			owner := rt.(*types.Named).Obj()
			if !owner.Exported() || stdlibInterface[f.Name()] {
				continue
			}
			key = dir + "." + owner.Name() + "." + f.Name()
		}
		seen[key] = true
		if _, ok := allowed[key]; !ok && !live[f] {
			dead = append(dead, l.fset.Position(f.Pos()).String()+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is unreachable from production code: delete it, unexport it behind an export_test.go, or allow-list it with a reason", d)
	}
	for key := range allowed {
		if !seen[key] {
			t.Errorf("allow-list entry %s names nothing declared under internal/", key)
		}
	}
}

// loaded is the type-checked non-test source of a set of modules.
type loaded struct {
	fset  *token.FileSet
	info  *types.Info
	src   map[string]listed // import path -> where its source is
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	std   types.Importer
	err   error // first type error
}

// listed is the part of `go list -json` this scan reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// load lists and type-checks every non-test package of the module and
// of benchmark/, once for all the gates of this package. Packages of the
// two modules are checked here, so that a function or a field is one
// object however many packages mention it; everything else (the
// standard library) comes from the source importer.
func load(t *testing.T) *loaded {
	t.Helper()
	loadOnce.Do(func() { theLoad, loadErr = loadModules("../..", "../../benchmark") })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return theLoad
}

var (
	loadOnce sync.Once
	theLoad  *loaded
	loadErr  error
)

func loadModules(moduleDirs ...string) (*loaded, error) {
	build.Default.CgoEnabled = false // the pure-Go files of net and os/user type-check without a C toolchain
	l := &loaded{
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		src:   map[string]listed{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, dir := range moduleDirs {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); ; {
			var p listed
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("go list in %s: %v", dir, err)
			}
			l.src[p.ImportPath] = p
		}
	}
	for path := range l.src {
		if _, err := l.Import(path); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", path, err)
		}
	}
	if l.err != nil {
		return nil, fmt.Errorf("type-check: %v", l.err)
	}
	return l, nil
}

// Import implements types.Importer.
func (l *loaded) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	p, ok := l.src[path]
	if !ok {
		return l.std.Import(path)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l, Error: func(err error) {
		if l.err == nil {
			l.err = err
		}
	}}
	pkg, _ := conf.Check(path, l.fset, files, l.info)
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}
