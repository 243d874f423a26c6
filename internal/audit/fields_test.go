package audit

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllowed lists struct fields that may stay without a reader,
// each with its reason. Keys are "<package dir>.<Type>.<field>".
var writeOnlyAllowed = map[string]string{
	"internal/bench.Result.Reads":  "internal/bench's TPC-W run test asserts the browse/order mix through it",
	"internal/core.MsgVote.Ballot": "the coordinator counts fast votes without comparing their ballots; whether a fast-path learner must (mixed-ballot counts) is ROADMAP item 8's first target, and the ballot stays on the wire until that is answered",
}

// TestStructFieldsAreRead fails when a named struct type of the module
// declares a field that non-test code only ever writes: a counter nobody
// reports, a timestamp nobody compares — state that costs memory and a
// statement per update and tells nobody anything. A use is a write when
// it is the key of a composite literal, the left side of an assignment
// (=, op=, ++, --), or the slice an append to that same field extends;
// every other use is a read, benchmark/'s included.
//
// Exempt, because their readers are not identifiers this scan can see:
// embedded fields (read through promotion); every field of a type handed
// to an `any` parameter of encoding/json, of fmt, or of a function of
// the module itself, which may pass it on to either (they read by
// reflection: the /metrics and bench-result structs), followed down
// through the types of its fields; and every field of a struct that is
// compared with ==, used as a map key or converted to another struct
// type as a value (all its fields take part).
//
// Two uses are not reads although they look like one. A message handed
// to a transport.Message parameter is not read by reflection: transport
// reads a message only through its WireMessage methods. And a use
// inside an encoder (an AppendWire method, or an append*/Append*
// function of a package's wire.go, disk.go or codec.go) only puts the
// field on the wire or the disk; its reader is on the far side, in the
// handler that consumes the decoded message, and without one the field
// is dead however faithfully it is encoded.
func TestStructFieldsAreRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	l := load(t)

	// Every field of every named struct type the module declares.
	owner := map[*types.Var]string{} // field -> "<package dir>.<Type>.<field>"
	parent := map[*types.Var]*types.Struct{}
	var fields []*types.Var
	for path, pkg := range l.pkgs {
		if path == module+"/benchmark" {
			continue
		}
		dir := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		if dir == "" {
			dir = "."
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
					owner[f], parent[f] = dir+"."+name+"."+f.Name(), st
					fields = append(fields, f)
				}
			}
		}
	}

	// opaque marks the struct types whose fields have readers this scan
	// cannot see. A struct used whole as a value (compared, hashed,
	// converted) takes the structs and arrays it holds by value with it;
	// one read by reflection also takes everything it points to.
	opaque := map[*types.Struct]bool{}
	var mark func(typ types.Type, reflected bool, seen map[types.Type]bool)
	mark = func(typ types.Type, reflected bool, seen map[types.Type]bool) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Array:
			mark(u.Elem(), reflected, seen)
		case *types.Struct:
			opaque[u] = true
			for i := 0; i < u.NumFields(); i++ {
				mark(u.Field(i).Type(), reflected, seen)
			}
		case *types.Pointer:
			if reflected {
				mark(u.Elem(), reflected, seen)
			}
		case *types.Slice:
			if reflected {
				mark(u.Elem(), reflected, seen)
			}
		case *types.Map:
			if reflected {
				mark(u.Key(), reflected, seen)
				mark(u.Elem(), reflected, seen)
			}
		}
	}
	markReflected := func(typ types.Type) { mark(typ, true, map[types.Type]bool{}) }
	markCompared := func(typ types.Type) { mark(typ, false, map[types.Type]bool{}) }
	typeOf := func(e ast.Expr) types.Type { return l.info.Types[e].Type }
	isAny := func(typ types.Type) bool {
		if typ == nil {
			return false
		}
		if named, ok := typ.(*types.Named); ok {
			if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == module+"/internal/transport" && obj.Name() == "Message" {
				return false // read only through its WireMessage methods
			}
		}
		iface, ok := typ.Underlying().(*types.Interface)
		return ok && iface.NumMethods() == 0
	}
	// reflects reports whether a called function may read its `any`
	// arguments by reflection.
	reflects := func(fun ast.Expr) bool {
		var id *ast.Ident
		switch fun := fun.(type) {
		case *ast.SelectorExpr:
			id = fun.Sel
		case *ast.Ident:
			id = fun
		default:
			return false
		}
		f, ok := l.info.Uses[id].(*types.Func)
		if !ok || f.Pkg() == nil {
			return false
		}
		path := f.Pkg().Path()
		return path == "encoding/json" || path == "fmt" || l.pkgs[path] != nil
	}

	// fieldOf resolves a selector (or a bare composite-literal key) to
	// the generic declaration of the field it names.
	fieldOf := func(e ast.Expr) *types.Var {
		var id *ast.Ident
		switch e := e.(type) {
		case *ast.SelectorExpr:
			id = e.Sel
		case *ast.Ident:
			id = e
		default:
			return nil
		}
		if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}

	written := map[*ast.Ident]bool{} // identifier uses that are writes
	markWrite := func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.SelectorExpr:
			written[e.Sel] = true
		case *ast.Ident:
			written[e] = true
		}
	}
	encoded := map[*ast.Ident]bool{} // identifier uses inside an encoder
	for _, files := range l.files {
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if isEncoder(n, filepath.Base(l.fset.Position(file.Pos()).Filename)) {
						ast.Inspect(n, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								encoded[id] = true
							}
							return true
						})
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok && fieldOf(kv.Key) != nil {
							markWrite(kv.Key)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						f := fieldOf(lhs)
						if f == nil {
							continue
						}
						markWrite(lhs)
						// x.f = append(x.f, ...) extends f without reading it.
						if n.Tok != token.ASSIGN || len(n.Rhs) != len(n.Lhs) {
							continue
						}
						if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) > 0 {
							if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && fieldOf(call.Args[0]) == f {
								markWrite(call.Args[0])
							}
						}
					}
				case *ast.IncDecStmt:
					if fieldOf(n.X) != nil {
						markWrite(n.X)
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						markCompared(typeOf(n.X))
					}
				case *ast.CallExpr:
					tv := l.info.Types[n.Fun]
					if tv.IsType() { // a conversion T(x): x's fields become T's
						if len(n.Args) == 1 {
							markCompared(typeOf(n.Args[0]))
						}
						return true
					}
					sig, ok := tv.Type.(*types.Signature)
					if !ok || !reflects(n.Fun) {
						return true
					}
					for i, arg := range n.Args {
						var param types.Type
						switch np := sig.Params().Len(); {
						case sig.Variadic() && i >= np-1:
							param = sig.Params().At(np - 1).Type()
							if n.Ellipsis == token.NoPos {
								param = param.(*types.Slice).Elem()
							}
						case i < np:
							param = sig.Params().At(i).Type()
						}
						if isAny(param) {
							markReflected(typeOf(arg))
						}
					}
				}
				return true
			})
		}
	}
	for _, tv := range l.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			markCompared(m.Key())
		}
	}

	read := map[*types.Var]bool{}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] && !encoded[id] {
			read[v.Origin()] = true
		}
	}

	seen := map[string]bool{}
	var dead []string
	for _, f := range fields {
		key := owner[f]
		seen[key] = true
		if read[f] || opaque[parent[f]] {
			continue
		}
		if _, ok := writeOnlyAllowed[key]; !ok {
			dead = append(dead, l.fset.Position(f.Pos()).String()+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is never read by non-test code: delete it with the statements that feed it, or allow-list it with a reason", d)
	}
	for key := range writeOnlyAllowed {
		if !seen[key] {
			t.Errorf("allow-list entry %s names no field declared in the module", key)
		}
	}
}

// isEncoder reports whether fn, declared in the file named file, only
// serializes: an AppendWire method, or an append*/Append* function of a
// package's wire.go, disk.go or codec.go.
func isEncoder(fn *ast.FuncDecl, file string) bool {
	name := fn.Name.Name
	if fn.Recv != nil {
		return name == "AppendWire"
	}
	switch file {
	case "wire.go", "disk.go", "codec.go":
		return strings.HasPrefix(name, "append") || strings.HasPrefix(name, "Append")
	}
	return false
}
