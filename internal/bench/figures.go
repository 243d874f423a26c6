package bench

import (
	"time"

	"mdcc/internal/microbench"
	"mdcc/internal/record"
	"mdcc/internal/stats"
	"mdcc/internal/topology"
	"mdcc/internal/tpcw"
)

// Scale sizes an experiment. PaperScale matches §5; QuickScale keeps
// CI fast while preserving shapes approximately.
type Scale struct {
	Clients    int
	Items      int
	NodesPerDC int
	Warmup     time.Duration
	Measure    time.Duration
}

// PaperScale is the evaluation's setup: 100 geo-distributed clients,
// 10k items, 1 min warmup.
func PaperScale() Scale {
	return Scale{Clients: 100, Items: 10000, NodesPerDC: 4,
		Warmup: 30 * time.Second, Measure: 120 * time.Second}
}

// QuickScale shrinks everything ~10x for tests.
func QuickScale() Scale {
	return Scale{Clients: 10, Items: 1000, NodesPerDC: 2,
		Warmup: 5 * time.Second, Measure: 20 * time.Second}
}

// tpcwSweep runs TPC-W once per protocol of figures 3 and 4.
// Megastore* clients (and its master) are pinned to US-West, in its
// favor, exactly as in the paper.
func tpcwSweep(seed int64, nodesPerDC, clients, items int, warmup, measure time.Duration) map[Protocol]*Result {
	out := make(map[Protocol]*Result)
	for _, proto := range AllProtocols() {
		clientDC := -1
		if proto == ProtoMegastore {
			clientDC = int(topology.USWest)
		}
		w := NewWorld(Options{
			Protocol:    proto,
			NodesPerDC:  nodesPerDC,
			Clients:     clients,
			ClientDC:    clientDC,
			Seed:        seed,
			Constraints: []record.Constraint{tpcw.Constraint()},
		})
		wl := tpcw.New(tpcw.Options{Items: items})
		out[proto] = Run(w, wl, RunConfig{Warmup: warmup, Measure: measure})
	}
	return out
}

// Figure3 — TPC-W write-transaction response-time CDFs for QW-3,
// QW-4, MDCC, 2PC and Megastore*.
func Figure3(seed int64, sc Scale) map[Protocol]*Result {
	return tpcwSweep(seed, sc.NodesPerDC, sc.Clients, sc.Items, sc.Warmup, sc.Measure)
}

// Figure4 — TPC-W throughput scale-out: (50 clients, 5k items),
// (100, 10k), (200, 20k) with 2,500 items per storage node.
type Fig4Point struct {
	Clients int
	Results map[Protocol]*Result
}

// Figure4 runs the scale-out sweep. scales lists client counts; items
// and nodes derive from them as in the paper.
func Figure4(seed int64, clientCounts []int, warmup, measure time.Duration) []Fig4Point {
	var out []Fig4Point
	for _, clients := range clientCounts {
		items := clients * 100
		nodesPerDC := items / 2500
		if nodesPerDC < 1 {
			nodesPerDC = 1
		}
		out = append(out, Fig4Point{Clients: clients,
			Results: tpcwSweep(seed, nodesPerDC, clients, items, warmup, measure)})
	}
	return out
}

// microSweep runs the micro-benchmark, shaped by tune (nil = the
// defaults), once per protocol on §5.3's deployment: 2 storage nodes
// per DC, geo-distributed clients.
func microSweep(seed int64, sc Scale, protos []Protocol, tune func(*microbench.Options)) map[Protocol]*Result {
	out := make(map[Protocol]*Result)
	for _, proto := range protos {
		w := NewWorld(Options{
			Protocol:    proto,
			NodesPerDC:  2,
			Clients:     sc.Clients,
			ClientDC:    -1,
			Seed:        seed,
			Constraints: []record.Constraint{microbench.Constraint()},
		})
		opts := microbench.Defaults()
		opts.Items = sc.Items
		if tune != nil {
			tune(&opts)
		}
		out[proto] = Run(w, microbench.New(opts), RunConfig{Warmup: sc.Warmup, Measure: sc.Measure})
	}
	return out
}

// Figure5 — micro-benchmark response-time CDFs for MDCC, Fast, Multi
// and 2PC, the configurations of §5.3.1.
func Figure5(seed int64, sc Scale) map[Protocol]*Result {
	return microSweep(seed, sc, []Protocol{ProtoMDCC, ProtoFast, ProtoMulti, Proto2PC}, nil)
}

// Fig6Point is one hot-spot size's commit/abort tallies.
type Fig6Point struct {
	HotspotPct int
	Results    map[Protocol]*Result
}

// Figure6 — commits and aborts versus conflict rate. The hot-spot
// receives 90% of accesses; its size sweeps 2%..90% of the table.
// Initial stock is sized so the hottest configurations deplete items
// during the run (that is what triggers MDCC's demarcation collisions
// in the paper).
func Figure6(seed int64, sc Scale, hotspotPcts []int) []Fig6Point {
	// Expected stock pressure: roughly one transaction per client per
	// 350ms, 3 items × ~2 units each, 90% into the hot spot.
	expTxns := float64(sc.Clients) * sc.Measure.Seconds() / 0.35
	hotUnits := 0.9 * expTxns * 3 * 2
	// Half the 2%-hotspot per-item load: the smallest hot spots
	// deplete mid-run, larger ones never do.
	stock := int64(0.5 * hotUnits / (float64(sc.Items) * 0.02))
	if stock < 10 {
		stock = 10
	}
	var out []Fig6Point
	for _, pct := range hotspotPcts {
		pct := pct
		out = append(out, Fig6Point{HotspotPct: pct,
			Results: microSweep(seed, sc, []Protocol{Proto2PC, ProtoMulti, ProtoFast, ProtoMDCC},
				func(o *microbench.Options) {
					o.HotspotFrac = float64(pct) / 100
					o.InitialStockMin = stock
					o.InitialStockMax = stock * 2
				})})
	}
	return out
}

// Fig7Point is one locality setting's latency boxplots.
type Fig7Point struct {
	LocalPct int
	Results  map[Protocol]*Result
}

// Figure7 — response times versus master locality for Multi and MDCC:
// the given percentage of transactions touch only records whose
// master is in the client's own data center.
func Figure7(seed int64, sc Scale, localPcts []int) []Fig7Point {
	var out []Fig7Point
	for _, pct := range localPcts {
		pct := pct
		out = append(out, Fig7Point{LocalPct: pct,
			Results: microSweep(seed, sc, []Protocol{ProtoMulti, ProtoMDCC},
				func(o *microbench.Options) { o.LocalMasterFrac = float64(pct) / 100 })})
	}
	return out
}

// Fig8Result is the failure-experiment harvest.
type Fig8Result struct {
	Result    *Result
	PreMean   float64 // mean committed latency before the outage (ms)
	PostMean  float64 // after
	PreCount  int
	PostCount int
}

// Figure8 — time series of MDCC response times across a simulated
// US-East outage, with 100 clients in US-West (US-East is their
// closest remote DC, so the failure must actually be tolerated).
func Figure8(seed int64, clients int, failAt, total time.Duration) Fig8Result {
	w := NewWorld(Options{
		Protocol:    ProtoMDCC,
		NodesPerDC:  2,
		Clients:     clients,
		ClientDC:    int(topology.USWest),
		Seed:        seed,
		Constraints: []record.Constraint{microbench.Constraint()},
	})
	wl := microbench.New(microbench.Defaults())
	res := Run(w, wl, RunConfig{
		Warmup:           0,
		Measure:          total,
		TimeSeriesBucket: time.Second,
		Events: []Event{
			{At: failAt, Do: func(w *World) { w.FailDC(topology.USEast) }},
		},
	})
	pre, npre := res.Series.MeanBetween(10*time.Second, failAt)
	post, npost := res.Series.MeanBetween(failAt+5*time.Second, total)
	return Fig8Result{
		Result:  res,
		PreMean: pre, PostMean: post, PreCount: npre, PostCount: npost,
	}
}

// CDFSeries converts results to the plotting form used by
// stats.ASCIICDF.
func CDFSeries(results map[Protocol]*Result) map[string]*stats.Sample {
	out := make(map[string]*stats.Sample, len(results))
	for p, r := range results {
		out[string(p)] = r.WriteLat
	}
	return out
}
