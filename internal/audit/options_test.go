package audit

import (
	"go/ast"
	"go/constant"
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
	"internal/bench.Options.DropProb":     "only tests set it: internal/check's drop world. Its scenario-harness replacement, demarcation-stress under 2% ambient drops, breaks units>=0 on 9 of seeds 1-10, so the fold waits for that fix (ROADMAP item 19)",
	"internal/bench.Options.SyncInterval": "only tests set it: internal/check's drop world repairs its replicas with it; it folds with DropProb (ROADMAP item 19)",
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
// Two kinds of write (see collectOptionWrites) do not count. One is the
// declaring package filling its own default. The other is a copy of
// another option field (`cfg.F = opts.G`): it counts only once its
// source is itself set.
func TestOptionsHaveProductionSetters(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	o := collectOptionWrites(t)

	seen := map[string]bool{}
	var unset []string
	for _, f := range o.fields {
		k := o.owner[f]
		seen[k] = true
		if _, ok := unsetAllowed[k]; ok {
			if o.set[f] {
				t.Errorf("allow-list entry %s: non-test code sets it now; drop the entry", k)
			}
			continue
		}
		if !o.set[f] {
			unset = append(unset, o.where(f))
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

// oneValueAllowed lists option fields that may keep a single value in
// use, each with its reason. Keys are as in unsetAllowed.
var oneValueAllowed = map[string]string{
	"internal/simnet.Options.JitterFrac": "0.10 in all three production worlds, but six tests pin exact delivery times at zero jitter (TestDeliveryAfterLatency, TestScaleLatency, TestServiceTimeQueueing, TestSelfMessagesAndChains, TestSendQueueRule, TestBatcherPreservesOrder)",
	"mdcc.ClusterConfig.Mode":            "public API: a library caller outside the module picks the protocol; every example in the module runs ModeMDCC",
}

// TestOptionsHaveTwoValues is the second half of DESIGN.md §14's rule:
// a setting is an option only if non-test code, benchmark/'s included,
// uses two different values of it. For each field the first half
// counts as set, the values in use are the constant of every write,
// the declaring package's default fills included, and the zero value
// when some non-test composite literal of the struct leaves the field
// out and no default fill replaces it. The field fails when every write
// is a constant and they are all one value: it is a constant, and the
// branch it selects is dead.
func TestOptionsHaveTwoValues(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module and the standard library it imports from source")
	}
	o := collectOptionWrites(t)

	seen := map[string]bool{}
	var single []string
	for _, f := range o.fields {
		k := o.owner[f]
		seen[k] = true
		if !o.set[f] {
			continue // the first half's job
		}
		var vals []constant.Value
		add := func(v constant.Value) {
			for _, u := range vals {
				if constant.Compare(u, token.EQL, v) {
					return
				}
			}
			vals = append(vals, v)
		}
		allConst := true
		for _, rhs := range o.writes[f] {
			v := o.l.info.Types[rhs].Value
			if v == nil {
				allConst = false
				break
			}
			add(v)
		}
		if o.omitted[f] && !o.filled[f] {
			if z := zero(f.Type()); z != nil {
				add(z)
			} else {
				allConst = false
			}
		}
		if _, ok := oneValueAllowed[k]; ok {
			if !allConst || len(vals) > 1 {
				t.Errorf("allow-list entry %s: non-test code uses two values of it now; drop the entry", k)
			}
			continue
		}
		if allConst && len(vals) == 1 {
			single = append(single, o.where(f)+" (always "+vals[0].String()+")")
		}
	}
	sort.Strings(single)
	for _, s := range single {
		t.Errorf("%s has one value in non-test code: make it a constant and delete what it selects, or allow-list it with a reason", s)
	}
	for k := range oneValueAllowed {
		if !seen[k] {
			t.Errorf("allow-list entry %s names no option field declared in the module", k)
		}
	}
}

// zero is the zero value of a basic type as a constant, or nil.
func zero(typ types.Type) constant.Value {
	b, ok := typ.Underlying().(*types.Basic)
	switch {
	case !ok:
		return nil
	case b.Info()&types.IsBoolean != 0:
		return constant.MakeBool(false)
	case b.Info()&types.IsString != 0:
		return constant.MakeString("")
	case b.Info()&types.IsNumeric != 0:
		return constant.MakeInt64(0)
	}
	return nil
}

// optionWrites is what the module's non-test code, benchmark/'s
// included, writes to the fields of its option structs.
type optionWrites struct {
	l      *loaded
	fields []*types.Var
	owner  map[*types.Var]string // field -> "<package dir>.<Type>.<field>"
	// set holds the fields with a write that is neither a default fill
	// nor a copy of an unset option field.
	set map[*types.Var]bool
	// writes holds the right side of every write of a field, default
	// fills included; nil when there is no one expression for it.
	writes map[*types.Var][]ast.Expr
	// filled holds the fields their declaring package fills a default
	// for; omitted the fields some composite literal of their struct
	// leaves out.
	filled, omitted map[*types.Var]bool
}

// where names f by its declaration and its key.
func (o *optionWrites) where(f *types.Var) string {
	return o.l.fset.Position(f.Pos()).String() + ": " + o.owner[f]
}

// collectOptionWrites finds the option fields and their writes. A
// write is a composite-literal key or the left side of an assignment.
// A write to x.F in a function of F's own package that also reads x.F
// is a default fill, as in `if x.F <= 0 { x.F = c }` or a value rounded
// up in place.
func collectOptionWrites(t *testing.T) *optionWrites {
	l := load(t)
	o := &optionWrites{
		l:       l,
		owner:   map[*types.Var]string{},
		set:     map[*types.Var]bool{},
		writes:  map[*types.Var][]ast.Expr{},
		filled:  map[*types.Var]bool{},
		omitted: map[*types.Var]bool{},
	}
	structs := map[*types.Named]*types.Struct{}
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
			structs[tn.Type().(*types.Named)] = st
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && f.Name() != "_" {
					o.owner[f] = dir + "." + name + "." + f.Name()
					o.fields = append(o.fields, f)
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
			if v = v.Origin(); o.owner[v] != "" {
				return v
			}
		}
		return nil
	}

	copies := map[*types.Var][]*types.Var{} // destination -> sources
	// write records a write of f from rhs that is not a default fill.
	write := func(f *types.Var, rhs ast.Expr) {
		o.writes[f] = append(o.writes[f], rhs)
		if sel, ok := rhs.(*ast.SelectorExpr); ok {
			if src := optionField(sel); src != nil {
				copies[f] = append(copies[f], src)
				return
			}
		}
		o.set[f] = true
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
						named, _ := l.info.Types[n].Type.(*types.Named)
						st := structs[named]
						if st == nil {
							break
						}
						keyed := map[*types.Var]bool{}
						for _, elt := range n.Elts {
							kv, ok := elt.(*ast.KeyValueExpr)
							if !ok {
								return true // positional: every field is given
							}
							if f := optionField(kv.Key); f != nil {
								keyed[f] = true
								write(f, kv.Value)
							}
						}
						for i := 0; i < st.NumFields(); i++ {
							if f := st.Field(i); o.owner[f] != "" && !keyed[f] {
								o.omitted[f] = true
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
						// The declaring package filling its default: a
						// value in use, but not a setter.
						o.filled[w.f] = true
						o.writes[w.f] = append(o.writes[w.f], w.rhs)
						continue
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
				if o.set[src] && !o.set[dst] {
					o.set[dst], grew = true, true
				}
			}
		}
	}
	return o
}
