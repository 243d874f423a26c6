package audit

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var reachProfile = flag.String("reach.profile", "", "coverage profile of the product runs (internal/audit/reach.sh writes it) for TestProductFunctionsAreReached")

// productPackages are the packages under internal/ whose functions the
// product runs must reach; reach.sh instruments the same list.
var productPackages = []string{"core", "gateway", "wal", "kv", "record", "mtx", "paxos", "ring", "check", "trace", "stats", "server", "transport"}

// unreached lists product functions the product runs may leave at 0 %,
// each with its reason. Keys are "<package dir>.<Func>" or
// "<package dir>.<Type>.<Method>", as in allowed.
var unreached = map[string]string{
	// Paths only a failure takes.
	"internal/check.KeysMentioned":        "runs only when an invariant is violated: the scenario harness names the keys of the failed check",
	"internal/trace.Recorder.TxsTouching": "runs only when an invariant is violated: the scenario harness finds the transactions behind it",
	"internal/trace.Recorder.Assemble":    "runs only when an invariant is violated: the scenario harness prints those transactions' timelines",
	"internal/transport.WireReader.fail":  "runs only on a truncated or corrupt frame, which healthy traffic never carries; the wire fuzzers drive it",

	// Protocol paths no product run's schedule takes.
	"internal/core.decidedLog.compact":            "schedule-dependent: only a decided log past 512 entries compacts, which benchmark/'s real-clock smoke test reaches in some runs; TestSweepCompactsRecordAndLeaderLogs drives it",
	"internal/core.packedLineage.tail":            "writes a peer's summary, which only a decided log past 512 entries keeps (decidedLog.compact)",
	"internal/core.acceptedWithin":                "adoptBase's physical-containment refusal, which no product run triggers; TestAdoptBasePhysicalContainment drives it",
	"internal/core.packedLineage.acceptedOutside": "adoptBase's physical-containment refusal, which no product run triggers; TestAdoptBasePhysicalContainment drives it",
	"internal/core.packedLineage.contains":        "adoptBase's physical-containment refusal, which no product run triggers; TestPackedLineageMatchesReference drives it",
	"internal/core.DemarcationHigh":               "upper-bound demarcation: no product run declares a Max constraint (ROADMAP item 23)",
	"internal/record.MaxBound":                    "public API (mdcc.MaxBound) that no product run declares (ROADMAP item 23)",
	"internal/record.Bound":                       "public API (mdcc.Bound) that no product run declares (ROADMAP item 23)",
	"internal/transport.Local.Fail":               "the root package's Cluster.FailDC (examples/failover); no product run takes a data center down over transport.Local",
	"internal/transport.Local.Recover":            "the root package's Cluster.RecoverDC (examples/failover); no product run takes a data center down over transport.Local",
	"internal/core.Client.SupportsCommutative":    "only the paper's figure workloads (tpcw, microbench under mdcc-bench) ask whether a client runs deltas natively",
	"internal/mtx.Commutative":                    "only the paper's figure workloads (tpcw, microbench under mdcc-bench) ask whether a client runs deltas natively",

	// Called from outside the product runs.
	"internal/gateway.NodeIDs":              "only benchmark/ calls it (ROADMAP item 10(a))",
	"internal/gateway.Gateway.Read":         "only benchmark/ calls it, in an in-process gateway deployment its smoke test does not run",
	"internal/server.Unlisted":              "a test hook allowed lists: every deployment's TestConfigDeviations calls it",
	"internal/transport.TCP.DropPeerConns":  "a test hook allowed lists: internal/core's vote-transport test tears connections down with it",
	"internal/stats.Sample.Min":             "a figure helper: only mdcc-bench's CDF plots and boxplots use it",
	"internal/stats.Sample.CDF":             "a figure helper: only mdcc-bench's CSV export uses it",
	"internal/stats.Sample.Box":             "a figure helper: only mdcc-bench's boxplots (Figure 7) use it",
	"internal/stats.ASCIICDF":               "a figure helper: only mdcc-bench's terminal CDF plots use it",
	"internal/stats.NewTimeSeries":          "a figure helper: only internal/bench's time series (Figure 8) use it",
	"internal/stats.TimeSeries.Add":         "a figure helper: only internal/bench's time series (Figure 8) use it",
	"internal/stats.TimeSeries.Points":      "a figure helper: only mdcc-bench's time-series print uses it",
	"internal/stats.TimeSeries.MeanBetween": "a figure helper: only internal/bench's failover figure (Figure 8) uses it",
}

// TestProductFunctionsAreReached fails when a function of a product
// package runs in none of the product's own runs: the golden slice of
// every scenario, the wire round trip of the protocol's traffic, the
// mdcc-server process tests (the spawned servers' counters included)
// and benchmark/'s smoke test. A static caller, which
// TestExportedFuncsHaveProductionCallers asks for, does not show that
// the traffic the system serves reaches the function; a count does.
// reach.sh measures the union of those runs and passes it in with
// -reach.profile. A function at 0 % there is deleted, reached from a
// product run, or named in unreached with its reason. Methods the
// standard library calls through its own interfaces (stdlibInterface)
// are exempt, and so is a function with no statements.
//
// Without -reach.profile the test only checks that every entry of
// unreached names a product function.
func TestProductFunctionsAreReached(t *testing.T) {
	funcs := productFuncs(t)
	declared := map[string]bool{}
	for _, f := range funcs {
		declared[f.key] = true
	}
	for key, reason := range unreached {
		if !declared[key] {
			t.Errorf("allow-list entry %s names no product function", key)
		}
		if reason == "" {
			t.Errorf("allow-list entry %s gives no reason", key)
		}
	}
	if *reachProfile == "" {
		return
	}
	blocks := readProfile(t, *reachProfile)
	measured := map[string]bool{}
	for name := range blocks {
		measured[path.Dir(name)] = true
	}
	for _, p := range productPackages {
		if !measured[module+"/internal/"+p] {
			t.Errorf("%s measures nothing of internal/%s: it is not a union of the product runs", *reachProfile, p)
		}
	}
	var dead []string
	for _, f := range funcs {
		var n, stmts, reached int
		for _, b := range blocks[f.file] {
			if b.start.atOrAfter(f.start) && f.end.atOrAfter(b.start) {
				n++
				stmts += b.stmts
				if b.count > 0 {
					reached += b.stmts
				}
			}
		}
		_, ok := unreached[f.key]
		switch {
		case n == 0: // even an empty body has a block
			t.Errorf("%s has no block for %s: it is not a profile of this tree", *reachProfile, f.key)
		case f.exempt || stmts == 0:
		case reached == 0 && !ok:
			dead = append(dead, fmt.Sprintf("%s:%d: %s", strings.TrimPrefix(f.file, module+"/"), f.start.line, f.key))
		case reached > 0 && ok:
			t.Logf("%s is allow-listed but this profile reaches it", f.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s runs in no product run: delete it, reach it from one, or allow-list it with a reason", d)
	}
}

// productFunc is one function declaration of a product package.
type productFunc struct {
	key        string // as in unreached
	file       string // as a profile names it: "mdcc/internal/core/acceptor.go"
	start, end pos
	exempt     bool // a method the standard library calls
}

// pos is a line and column of a source file.
type pos struct{ line, col int }

// atOrAfter reports whether p is not before q.
func (p pos) atOrAfter(q pos) bool { return p.line > q.line || p.line == q.line && p.col >= q.col }

// productFuncs parses the non-test files of every product package, as
// the build of this platform selects them.
func productFuncs(t *testing.T) []productFunc {
	t.Helper()
	fset := token.NewFileSet()
	var out []productFunc
	for _, p := range productPackages {
		dir := "internal/" + p
		bp, err := build.ImportDir(filepath.Join("../..", dir), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := dir + "." + fd.Name.Name
				if fd.Recv != nil {
					key = dir + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				s, e := fset.Position(fd.Pos()), fset.Position(fd.End())
				out = append(out, productFunc{
					key: key, file: module + "/" + dir + "/" + name,
					start: pos{s.Line, s.Column}, end: pos{e.Line, e.Column},
					exempt: fd.Recv != nil && stdlibInterface[fd.Name.Name],
				})
			}
		}
	}
	return out
}

// recvName is the name of a receiver's type, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return fmt.Sprintf("%T", e)
}

// profBlock is one block of a coverage profile.
type profBlock struct {
	start        pos
	stmts, count int
}

// readProfile parses a text coverage profile into its blocks by file
// ("mdcc/internal/core/acceptor.go"). A block listed twice keeps its
// larger count, so a concatenation of profiles reads as their union.
func readProfile(t *testing.T, prof string) map[string][]profBlock {
	t.Helper()
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]profBlock{}
	index := map[string]map[pos]int{} // file -> block start -> index in out[file]
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.HasPrefix(sc.Text(), "mode:") {
			continue
		}
		// name.go:line.col,line.col statements count
		name, rest, _ := strings.Cut(sc.Text(), ":")
		var b profBlock
		var end pos
		if _, err := fmt.Sscanf(rest, "%d.%d,%d.%d %d %d", &b.start.line, &b.start.col, &end.line, &end.col, &b.stmts, &b.count); err != nil {
			t.Fatalf("%s:%d: %q: %v", prof, line, sc.Text(), err)
		}
		if index[name] == nil {
			index[name] = map[pos]int{}
		}
		if i, ok := index[name][b.start]; ok {
			out[name][i].count = max(out[name][i].count, b.count)
			continue
		}
		index[name][b.start] = len(out[name])
		out[name] = append(out[name], b)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
