package audit

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// unsetAllowed lists option fields that may stay without a production
// setter, each with its reason. Keys are "<package dir>.<Type>.<field>".
var unsetAllowed = map[string]string{
	"internal/bench.Options.Gamma":        "only tests set it, but they build the γ ablation; folding it means moving those tests onto the scenario harness (DESIGN.md §14, \"Frozen in PR 35\")",
	"internal/bench.Options.DropProb":     "only tests set it, but they build internal/check's drop worlds; folding it means moving those tests onto the scenario harness (DESIGN.md §14, \"Frozen in PR 35\")",
	"internal/bench.Options.SyncInterval": "only tests set it, but they build internal/check's anti-entropy worlds; folding it means moving those tests onto the scenario harness (DESIGN.md §14, \"Frozen in PR 35\")",
	"mdcc.ClusterConfig.DataDir":          "the public API's durable mode: a library caller outside the module sets it, and it selects the durable engine over memory",
	"internal/scenario.Options.Dir":       "TestScenarioVerdictsGolden passes its own directory so it can mask the path in the hashed report; empty makes and removes a temporary one",
	"internal/scenario.Options.onDeliver": "test hook: TestProtocolTrafficSurvivesWire observes every delivered envelope through it; nil in every run of mdcc-sim",
	"internal/simnet.Options.OnDeliver":   "test hook: TestProtocolTrafficSurvivesWire (through the harness) and TestGatewayAnswersShareOneEnvelope observe every delivered envelope through it; nil in every deployment",
}

// optionType names the option structs: what a caller fills in to shape
// a component.
var optionType = regexp.MustCompile(`^(\w*Options|\w*Config|Tuning|\w*Scale|Layout)$`)

// TestOptionsHaveProductionSetters fails when a field of one of the
// module's option structs (a named struct type called *Options,
// *Config, Tuning, *Scale or Layout) is written by no non-test code,
// benchmark/'s included. Such a field is a setting only a test turns:
// DESIGN.md §14's rule wants it to be a constant, and the code path it
// selects gone with it.
//
// A write is a composite-literal key or the left side of an assignment.
// Two kinds of write do not count. One is the declaring package filling its own default: a
// write to x.F in a function of that package that also reads x.F, as
// in `if x.F <= 0 { x.F = c }` or a value rounded up in place. The other
// is a copy of another option field (`cfg.F = opts.G`): it counts only
// once its source is itself set.
func TestOptionsHaveProductionSetters(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	l := load(t)

	owner := map[*types.Var]string{} // field -> "<package dir>.<Type>.<field>"
	var fields []*types.Var
	for path, pkg := range l.pkgs {
		if path == module+"/benchmark" {
			continue
		}
		dir := strings.TrimPrefix(path, module+"/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !optionType.MatchString(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
					owner[f] = dir + "." + name + "." + f.Name()
					fields = append(fields, f)
				}
			}
		}
	}
	optionField := func(e ast.Expr) *types.Var {
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
			if v = v.Origin(); owner[v] != "" {
				return v
			}
		}
		return nil
	}

	set := map[*types.Var]bool{}
	copies := map[*types.Var][]*types.Var{} // destination -> sources
	// write records a write of f from rhs (nil when there is no one
	// expression for it).
	write := func(f *types.Var, rhs ast.Expr) {
		if sel, ok := rhs.(*ast.SelectorExpr); ok {
			if src := optionField(sel); src != nil {
				copies[f] = append(copies[f], src)
				return
			}
		}
		set[f] = true
	}
	for path, files := range l.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				// A function's writes to x.F are held back until its reads
				// are known: a write of its own package's field it also
				// reads is a default fill.
				type held struct {
					f   *types.Var
					sel string // "x.F"
					rhs ast.Expr
				}
				var writes []held
				written := map[*ast.Ident]bool{}
				reads := map[string]bool{} // every "x.F" decl reads
				key := func(sel *ast.SelectorExpr) string { return types.ExprString(sel.X) + "." + sel.Sel.Name }
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						for _, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if f := optionField(kv.Key); f != nil {
									write(f, kv.Value)
								}
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							sel, ok := lhs.(*ast.SelectorExpr)
							if !ok || optionField(sel) == nil {
								continue
							}
							var rhs ast.Expr
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								rhs = n.Rhs[i]
							}
							written[sel.Sel] = true
							writes = append(writes, held{optionField(sel), key(sel), rhs})
						}
					}
					return true
				})
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel.Sel] && optionField(sel) != nil {
						reads[key(sel)] = true
					}
					return true
				})
				for _, w := range writes {
					if w.f.Pkg().Path() == path && reads[w.sel] {
						continue // the declaring package filling its default
					}
					write(w.f, w.rhs)
				}
			}
		}
	}
	for grew := true; grew; {
		grew = false
		for dst, srcs := range copies {
			for _, src := range srcs {
				if set[src] && !set[dst] {
					set[dst], grew = true, true
				}
			}
		}
	}

	seen := map[string]bool{}
	var unset []string
	for _, f := range fields {
		k := owner[f]
		seen[k] = true
		if _, ok := unsetAllowed[k]; ok {
			if set[f] {
				t.Errorf("allow-list entry %s: non-test code sets it now; drop the entry", k)
			}
			continue
		}
		if !set[f] {
			unset = append(unset, l.fset.Position(f.Pos()).String()+": "+k)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test code: make it a constant and delete what it selects, or allow-list it with a reason", u)
	}
	for k := range unsetAllowed {
		if !seen[k] {
			t.Errorf("allow-list entry %s names no option field declared in the module", k)
		}
	}
}
