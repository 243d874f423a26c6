// mdcc-server hosts one data center's MDCC storage nodes over TCP.
// Run one per data center with the same topology file:
//
//	mdcc-server -topology cluster.json -dc us-west -listen :7420 -data /var/lib/mdcc
//
// The topology file maps data centers to addresses (see
// mdcc.RemoteTopology). Each server hosts every shard of its data
// center, with WAL-backed durable stores when -data is set.
//
// With -gateway the server additionally hosts the data center's
// transaction gateway tier on the same listener: thin clients
// (mdcc.DialGateway) submit transactions as RPCs and the gateway
// carries them all on one coordinator, batches outbound messages
// across transactions, and coalesces hot-key commutative updates into
// merged options.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

var (
	topoPath = flag.String("topology", "cluster.json", "topology JSON file")
	dcName   = flag.String("dc", "", "this server's data center (us-west, us-east, eu-ie, ap-sg, ap-tk)")
	listen   = flag.String("listen", "", "listen address (default: this DC's address from the topology)")
	dataDir  = flag.String("data", "", "durable store directory (empty = in-memory)")
	httpAddr = flag.String("http", "", "optional HTTP endpoint serving /metrics and /healthz")

	ckptEvery = flag.Duration("checkpoint-interval", 30*time.Second, "how often durable nodes snapshot full state and truncate the WAL; 0 disables and recovery replays the whole log (with -data)")

	gwMode = flag.Bool("gateway", false, "host this DC's transaction gateway tier (mdcc.DialGateway clients)")

	profile   = flag.Bool("profile", false, "serve Go pprof endpoints under /debug/pprof/ on -http and enable block/mutex profiling")
	traceOn   = flag.Bool("trace", false, "run the transaction flight recorder; retained timelines serve on /trace")
	traceSlow = flag.Duration("trace-slow", 0, "flight recorder: retain transactions slower than this (0 = default 1s)")
)

func main() {
	flag.Parse()
	log.SetPrefix("mdcc-server: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	topo, err := mdcc.LoadRemoteTopology(*topoPath)
	if err != nil {
		log.Fatal(err)
	}
	dc, err := mdcc.ParseDC(*dcName)
	if err != nil {
		log.Fatal(err)
	}
	mode, err := topo.ModeValue()
	if err != nil {
		log.Fatal(err)
	}
	addr := *listen
	if addr == "" {
		addr = topo.Addrs[dc.String()]
	}
	if addr == "" {
		log.Fatalf("no listen address for %s in %s", dc, *topoPath)
	}

	// Routes to the other data centers' servers: their storage nodes
	// and — in case a peer hosts a gateway tier — its gateway nodes
	// (votes, learned decisions and read replies flow directly back to
	// the gateway's coordinator living on that peer).
	routes := make(map[transport.NodeID]string)
	for name, a := range topo.Addrs {
		peer, err := mdcc.ParseDC(name)
		if err != nil {
			log.Fatal(err)
		}
		if peer == dc {
			continue
		}
		for i := 0; i < topo.NodesPerDC; i++ {
			routes[topology.StorageID(peer, i)] = a
		}
		for _, id := range gateway.RouteIDs(peer) {
			routes[id] = a
		}
	}
	net := transport.NewTCP(routes)
	net.Logf = log.Printf
	bound, err := net.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}

	if *profile {
		// Sample every mutex contention event and block events >= 1ms
		// so /debug/pprof/{mutex,block} have data without a rebuild.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(int(time.Millisecond))
		log.Printf("profiling on (mutex fraction 1, block rate 1ms)")
	}

	cfg := core.Defaults(mode)
	cfg.Constraints = topo.ConstraintList()
	var rec *trace.Recorder
	if *traceOn {
		rec = trace.New(trace.Config{SlowThreshold: *traceSlow})
		cfg.Tracer = rec
		// Stamp outbound envelopes and merge inbound stamps so the
		// Lamport order spans servers, not just this process.
		net.SetTracer(rec)
		log.Printf("flight recorder on (slow threshold %s)", rec.SlowThreshold())
	}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: topo.NodesPerDC, Clients: 0, ClientDC: -1})

	if *dataDir != "" {
		cfg.CheckpointInterval = *ckptEvery
	}
	var stores []*kv.Store
	var durables []*core.DurableState
	var nodes []*core.StorageNode
	for i := 0; i < topo.NodesPerDC; i++ {
		id := topology.StorageID(dc, i)
		if *dataDir != "" {
			dir := filepath.Join(*dataDir, fmt.Sprintf("shard%d", i))
			ds, err := core.OpenDurableOpts(dir, core.DurableOptions{GroupCommit: true})
			if err != nil {
				log.Fatal(err)
			}
			stores = append(stores, ds.Store)
			durables = append(durables, ds)
			nodes = append(nodes, core.NewDurableStorageNode(id, dc, net, cl, cfg, ds))
			rs := ds.RecoveryStats()
			from := "empty log"
			switch {
			case rs.UsedSnapshot:
				from = fmt.Sprintf("snapshot %d + %d-record tail", rs.SnapshotSeq, rs.Tail)
				if rs.FellBack {
					from += " (fell back one snapshot)"
				}
			case rs.Tail > 0:
				from = fmt.Sprintf("full replay of %d records", rs.Tail)
			}
			log.Printf("storage node %s up (shard %d/%d, mode %s, recovered from %s in %s)",
				id, i+1, topo.NodesPerDC, mode, from, rs.Duration.Round(time.Millisecond))
		} else {
			store := kv.NewMemory()
			stores = append(stores, store)
			nodes = append(nodes, core.NewStorageNode(id, dc, net, cl, cfg, store))
			log.Printf("storage node %s up (shard %d/%d, mode %s)", id, i+1, topo.NodesPerDC, mode)
		}
	}
	if *dataDir != "" {
		ckpt := "off (full-log recovery)"
		if *ckptEvery > 0 {
			ckpt = ckptEvery.String()
		}
		log.Printf("durable engine: group-commit, checkpoints every %s", ckpt)
	}
	var gw *gateway.Gateway
	if *gwMode {
		gw = gateway.New(dc, net, cl, cfg, gateway.Tuning{})
		resolved := gw.Tuning()
		log.Printf("gateway tier up as %s (one coordinator, batch %s, coalesce %s, headroom share 1/%d, read tier on)",
			gw.ID(), resolved.BatchWindow, resolved.CoalesceWindow, resolved.HeadroomShare)
	}
	log.Printf("%s serving on %s (shard ring epoch %d, %d active groups)",
		dc, bound, cl.Ring().Epoch(), len(cl.Ring().Current().Groups()))
	var ops *opsState
	if *httpAddr != "" {
		ops = serveHTTP(*httpAddr, dc, cl, nodes, stores, net, gw, rec, *profile, len(durables) > 0)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	// Gate the HTTP endpoints first: Close waits out in-flight handlers
	// and flips them to 503, so nothing below races a /metrics scrape.
	ops.Close()
	if gw != nil {
		gw.Close()
	}
	net.Close()
	if len(durables) > 0 {
		// Durable close flushes and releases each shard's WAL (its
		// committed puts and decisions).
		for _, ds := range durables {
			_ = ds.Close()
		}
	} else {
		for _, s := range stores {
			_ = s.Close()
		}
	}
}
