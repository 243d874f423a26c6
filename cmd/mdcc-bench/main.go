// mdcc-bench reproduces the MDCC paper's evaluation (§5) on the
// simulated five-data-center WAN: every arm runs in virtual time from
// a seed and prints the rows and series the paper plots. Real-clock
// measurement is not here — it lives in benchmark/ (BENCHMARK.json).
//
// Usage:
//
//	mdcc-bench [flags] fig3|fig4|fig5|fig6|fig7|fig8|gateway|scale|all
//
// fig3–fig8 are the paper's figures; gateway compares the paper's
// one-coordinator-per-session deployment with the gateway tier
// (DESIGN.md §7, §8); scale sweeps cluster size against message drop
// (DESIGN.md §13).
//
// Flags:
//
//	-quick     run at ~1/10 scale (fast; shapes approximate)
//	-seed N    simulation seed (default 1)
//	-csv DIR   also write the raw figure series as CSV files
//	-out F     write the gateway or scale arm's result as JSON to F
//	           (default: print only)
//
// and the scale arm's -scale.nodes, -scale.drop and -sim-gate.
//
// Absolute numbers depend on the latency matrix and service-time
// model (DESIGN.md §6); the claims to check are the *shapes*: who
// wins, by what factor, where the crossovers fall. EXPERIMENTS.md
// records paper-vs-measured values from one full-scale `all` run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"mdcc/internal/bench"
	"mdcc/internal/stats"
)

var (
	quick   = flag.Bool("quick", false, "run at reduced scale")
	seed    = flag.Int64("seed", 1, "simulation seed")
	csvDir  = flag.String("csv", "", "also write raw series as CSV files into this directory")
	jsonOut = flag.String("out", "", "write the gateway or scale arm's result as JSON to this file (default: print only)")
)

// arms is every subcommand, in the order `all` runs them; the usage
// line and the dispatch both come from it.
var arms = []struct {
	name string
	run  func()
}{
	{"fig3", fig3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"fig6", fig6},
	{"fig7", fig7},
	{"fig8", fig8},
	{"gateway", gatewayBench},
	{"scale", scaleBench},
}

func usageLine() string {
	names := make([]string, 0, len(arms)+1)
	for _, a := range arms {
		names = append(names, a.name)
	}
	return "usage: mdcc-bench [flags] " + strings.Join(append(names, "all"), "|")
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, usageLine())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	arg := flag.Arg(0)
	if g := *simGate; g < 0 || math.IsNaN(g) {
		fmt.Fprintf(os.Stderr, "mdcc-bench: -sim-gate %v: want a wall time of at least 0 ms (0 = no gate)\n", g)
		os.Exit(2)
	}
	if arg == "all" && *jsonOut != "" {
		fmt.Fprintln(os.Stderr, "mdcc-bench: -out names one arm's file; run gateway or scale on its own")
		os.Exit(2)
	}
	ran := false
	for _, a := range arms {
		if arg == "all" || arg == a.name {
			a.run()
			ran = true
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// writeJSON writes an arm's result to the -out file, if one was named.
func writeJSON(v interface{}) {
	if *jsonOut == "" {
		return
	}
	blob, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mdcc-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *jsonOut)
}

// gatewayBench runs the gateway comparison — per-session coordinators
// (the paper's deployment) vs the DC-local gateway tier on a hot-key
// commutative stampede, plus the read-mostly, multi-group, scarce-stock
// and flight-recorder arms. TestGatewayArmShapes asserts its claims at
// quick scale.
func gatewayBench() {
	sc := bench.GatewayPaperScale()
	if *quick {
		sc = bench.GatewayQuickScale()
	}
	// The tx/s claim needs the acceptors saturated, which only the
	// full-scale session count does; the message reduction holds at
	// any scale.
	claim := "gateway tier cuts acceptor msgs/commit >= 2.5x"
	if *quick {
		claim += fmt.Sprintf(" (no tx/s claim: %d sessions do not saturate the acceptors)", sc.Sessions)
	} else {
		claim += " and, with the acceptors saturated, commits >= 2x tx/s"
	}
	cmp := bench.GatewaySaturation(*seed, sc)
	cmp.Quick = *quick
	header(
		fmt.Sprintf("Gateway saturation — %d closed-loop sessions on %d hot keys (%s measure)",
			cmp.Sessions, cmp.HotKeys, sc.Measure),
		"repo benchmark (no paper figure): "+claim)
	row := func(r bench.GatewayRun) {
		fmt.Printf("%-26s %9.1f tx/s  %9d commits %7d aborts  %8.1f acceptor msgs/commit  (batch env %d carrying %d)\n",
			r.Mode, r.TPS, r.Commits, r.Aborts, r.AcceptorMsgsPerCommit,
			r.AcceptorBatchEnvelopes, r.AcceptorBatchItems)
	}
	row(cmp.Baseline)
	row(cmp.Gateway)
	if g := cmp.Gateway.Gateway; g != nil {
		fmt.Printf("gateway internals: %d merged options carrying %d updates (coalesce ratio %.2f), %d splits, %d shed, batch fan-in %.1f, %d escrow snapshots folded\n",
			g.MergedOptions, g.MergedUpdates, g.CoalesceRatio, g.MergeSplits, g.AdmissionRejects, g.BatchFanIn, g.EscrowUpdates)
	}
	fmt.Printf("speedup: %.2fx committed tx/s; acceptor msgs/commit reduced %.1fx\n", cmp.Speedup, cmp.MsgDrop)

	rm := cmp.ReadMostly
	fmt.Printf("\nread-mostly (%d sessions, %.0f%% reads, %s measure):\n",
		rm.Sessions, rm.ReadFrac*100, rm.Measure)
	rrow := func(r bench.ReadRun) {
		fmt.Printf("%-26s %10.0f reads/s  p50 %6.1fms p99 %6.1fms  %8.1f write tx/s  %0.3f read RPCs/read (%d cross-DC read msgs)\n",
			r.Mode, r.ReadsPerSec, r.ReadP50Ms, r.ReadP99Ms, r.WriteTPS, r.SteadyReadRPCsPerRead, r.CrossDCReadMsgs)
	}
	rrow(rm.Baseline)
	rrow(rm.Tier)
	if g := rm.Tier.Gateway; g != nil {
		fmt.Printf("read tier internals: %d local reads (frac %.3f), %d rpc fills, %d shared flights, %d quorum reads; feed %d msgs carrying %d items, %d gaps, %d resubs\n",
			g.LocalReads, g.LocalReadFrac, g.ReadRPCs, g.ReadCoalesced, g.ReadQuorums,
			g.FeedMsgs, g.FeedItems, g.FeedGaps, g.FeedResubs)
	}
	fmt.Printf("read speedup: %.2fx reads/s over per-RPC reads\n", rm.SpeedupRead)

	mg := cmp.MultiGroup
	fmt.Printf("\nmulti-group capacity (%d sessions and %d hot keys per group, %s measure):\n",
		mg.SessionsPerGroup, mg.HotKeysPerGroup, sc.MultiMeasure)
	row(mg.Single)
	row(mg.Multi)
	fmt.Printf("capacity scaling: %.2fx committed tx/s at %dx replica groups\n", mg.ScalingTPS, mg.Groups)

	a := cmp.Recorder
	fmt.Printf("\nflight-recorder ablation (headline gateway arm, recorder off vs on):\n")
	row(a.Off)
	row(a.On)
	fmt.Printf("recorder overhead: %+.3f%% committed tx/s (virtual), wall %s -> %s (%+.1f%%), %d events recorded\n",
		a.TPSDeltaPct, a.WallOff, a.WallOn, a.WallOverheadPct, a.RecorderEvents)

	s := cmp.Scarce
	fmt.Printf("scarce stock arm: %d commits %d aborts, %d demarcation rejects at acceptors", s.Commits, s.Aborts, s.DemarcationRejects)
	if g := s.Gateway; g != nil {
		fmt.Printf("; gateway: %d merged options carrying %d updates, %d splits, %d bypassed on exhausted headroom",
			g.MergedOptions, g.MergedUpdates, g.MergeSplits, g.CoalesceBypass)
	}
	fmt.Println()
	writeJSON(cmp)
}

func scale() bench.Scale {
	if *quick {
		return bench.QuickScale()
	}
	return bench.PaperScale()
}

func header(title, paper string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s\n", title)
	fmt.Printf("paper result: %s\n", paper)
	fmt.Printf("================================================================\n")
}

func cdfRows(results map[bench.Protocol]*bench.Result, order []bench.Protocol) {
	fmt.Printf("%-11s %8s %8s %8s %8s %8s %9s %9s\n",
		"protocol", "p10(ms)", "p50(ms)", "p90(ms)", "p99(ms)", "mean", "commits", "aborts")
	for _, p := range order {
		r, ok := results[p]
		if !ok {
			continue
		}
		l := r.WriteLat
		fmt.Printf("%-11s %8.0f %8.0f %8.0f %8.0f %8.0f %9d %9d\n",
			p, l.Percentile(10), l.Percentile(50), l.Percentile(90), l.Percentile(99),
			l.Mean(), r.Commits, r.Aborts)
	}
}

func fig3() {
	sc := scale()
	header(
		fmt.Sprintf("Figure 3 — TPC-W write transaction response-time CDF (%d clients, %d items)", sc.Clients, sc.Items),
		"medians QW-3 188ms < QW-4 260 < MDCC 278 < 2PC 668 << Megastore* 17,810")
	res := bench.Figure3(*seed, sc)
	order := []bench.Protocol{bench.ProtoQW3, bench.ProtoQW4, bench.ProtoMDCC, bench.Proto2PC, bench.ProtoMegastore}
	cdfRows(res, order)
	fmt.Println()
	fmt.Print(stats.ASCIICDF(bench.CDFSeries(res), 64, true))
	writeCDFCSV("fig3", res)
}

func fig4() {
	sc := scale()
	clients := []int{50, 100, 200}
	if *quick {
		clients = []int{10, 20, 40}
	}
	header(
		fmt.Sprintf("Figure 4 — TPC-W throughput scale-out (clients %v)", clients),
		"QW near-linear; MDCC within ~10% of QW-4 at 200 clients; 2PC lower; Megastore* flat & tiny")
	pts := bench.Figure4(*seed, clients, sc.Warmup, sc.Measure)
	order := []bench.Protocol{bench.ProtoQW3, bench.ProtoQW4, bench.ProtoMDCC, bench.Proto2PC, bench.ProtoMegastore}
	fmt.Printf("%-11s", "protocol")
	for _, p := range pts {
		fmt.Printf(" %12s", fmt.Sprintf("%d clients", p.Clients))
	}
	fmt.Println(" (committed write txn/s)")
	var rows []string
	for _, proto := range order {
		fmt.Printf("%-11s", proto)
		for _, p := range pts {
			fmt.Printf(" %12.1f", p.Results[proto].WriteTPS)
			rows = append(rows, fmt.Sprintf("%s,%d,%.2f", proto, p.Clients, p.Results[proto].WriteTPS))
		}
		fmt.Println()
	}
	writeCSV("fig4", "rows", "protocol,clients,write_tps", rows)
}

func fig5() {
	sc := scale()
	header(
		fmt.Sprintf("Figure 5 — micro-benchmark response-time CDF (%d clients, %d items)", sc.Clients, sc.Items),
		"medians MDCC 245ms < Fast 276 < Multi 388 < 2PC 543")
	res := bench.Figure5(*seed, sc)
	order := []bench.Protocol{bench.ProtoMDCC, bench.ProtoFast, bench.ProtoMulti, bench.Proto2PC}
	cdfRows(res, order)
	fmt.Println()
	fmt.Print(stats.ASCIICDF(bench.CDFSeries(res), 64, false))
	writeCDFCSV("fig5", res)
}

func fig6() {
	sc := scale()
	pcts := []int{2, 5, 10, 20, 50, 90}
	header(
		"Figure 6 — commits/aborts vs hot-spot size (90% of accesses to the hot-spot)",
		"low conflict: MDCC most commits; 5%: Fast < Multi; 2%: fast variants collapse")
	pts := bench.Figure6(*seed, sc, pcts)
	fmt.Printf("%-8s", "hotspot")
	for _, proto := range []bench.Protocol{bench.Proto2PC, bench.ProtoMulti, bench.ProtoFast, bench.ProtoMDCC} {
		fmt.Printf(" %18s", proto)
	}
	fmt.Println("   (commits/aborts)")
	var rows []string
	for _, p := range pts {
		fmt.Printf("%6d%% ", p.HotspotPct)
		for _, proto := range []bench.Protocol{bench.Proto2PC, bench.ProtoMulti, bench.ProtoFast, bench.ProtoMDCC} {
			r := p.Results[proto]
			fmt.Printf(" %18s", fmt.Sprintf("%d/%d", r.Commits, r.Aborts))
			rows = append(rows, fmt.Sprintf("%s,%d,%d,%d", proto, p.HotspotPct, r.Commits, r.Aborts))
		}
		fmt.Println()
	}
	writeCSV("fig6", "rows", "protocol,hotspot_pct,commits,aborts", rows)
}

func fig7() {
	sc := scale()
	pcts := []int{100, 80, 60, 40, 20}
	header(
		"Figure 7 — response times vs master locality (boxplots)",
		"Multi beats MDCC only at 100% locality; MDCC flat; Multi median worse already at 80%")
	pts := bench.Figure7(*seed, sc, pcts)
	var rows []string
	for _, p := range pts {
		fmt.Printf("locality %3d%%:\n", p.LocalPct)
		for _, proto := range []bench.Protocol{bench.ProtoMulti, bench.ProtoMDCC} {
			b := p.Results[proto].WriteLat.Box()
			fmt.Printf("  %-6s %s\n", proto, b)
			rows = append(rows, fmt.Sprintf("%s,%d,%.1f,%.1f,%.1f,%.1f,%.1f", proto, p.LocalPct, b.Min, b.Q1, b.Median, b.Q3, b.Max))
		}
	}
	writeCSV("fig7", "rows", "protocol,locality_pct,min,q1,median,q3,max", rows)
}

func fig8() {
	clients, failAt, total := 100, 125*time.Second, 250*time.Second
	if *quick {
		clients, failAt, total = 20, 30*time.Second, 60*time.Second
	}
	header(
		fmt.Sprintf("Figure 8 — response-time series across a US-East outage at t=%v (%d US-West clients)", failAt, clients),
		"commits continue seamlessly; avg 173.5ms -> 211.7ms")
	fr := bench.Figure8(*seed, clients, failAt, total)
	fmt.Printf("mean before outage: %7.1f ms  (n=%d)\n", fr.PreMean, fr.PreCount)
	fmt.Printf("mean after outage:  %7.1f ms  (n=%d)\n", fr.PostMean, fr.PostCount)
	points := fr.Result.Series.Points()
	var rows []string
	for _, pt := range points {
		rows = append(rows, fmt.Sprintf("%.0f,%.2f,%d", pt.Start.Seconds(), pt.Mean, pt.N))
	}
	writeCSV("fig8", "time series", "time_s,mean_latency_ms,commits", rows)
	fmt.Println("\ntime(s)  mean-latency(ms)  commits")
	for _, pt := range points {
		marker := ""
		if pt.Start >= failAt && pt.Start < failAt+time.Second {
			marker = "   <-- data center failed"
		}
		fmt.Printf("%6.0f   %12.1f %9d%s\n", pt.Start.Seconds(), pt.Mean, pt.N, marker)
	}
}
