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
	"mdcc/internal/record"
	"mdcc/internal/server"
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

	ckptEvery = flag.Duration("checkpoint-interval", server.CheckpointEvery, "how often durable nodes snapshot full state and truncate the WAL; only 0 disables, and recovery then replays the whole log (with -data); a negative interval is refused")

	gwMode = flag.Bool("gateway", false, "host this DC's transaction gateway tier (mdcc.DialGateway clients)")

	profile   = flag.Bool("profile", false, "serve Go pprof endpoints under /debug/pprof/ on -http and enable block/mutex profiling")
	traceOn   = flag.Bool("trace", false, "run the transaction flight recorder; retained timelines serve on /trace")
	traceSlow = flag.Duration("trace-slow", 0, "flight recorder: retain transactions slower than this (0 = default 1s)")
)

func main() {
	flag.Parse()
	if *traceSlow < 0 {
		fmt.Fprintf(os.Stderr, "mdcc-server: -trace-slow %s: negative (0 = default 1s)\n", *traceSlow)
		os.Exit(2)
	}
	if *ckptEvery < 0 {
		fmt.Fprintf(os.Stderr, "mdcc-server: -checkpoint-interval %s: negative (only 0 disables checkpoints)\n", *ckptEvery)
		os.Exit(2)
	}
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
	// and — in case a peer hosts a gateway tier — its gateway nodes.
	peers := make(map[topology.DC]string)
	for name, a := range topo.Addrs {
		peer, err := mdcc.ParseDC(name)
		if err != nil {
			log.Fatal(err)
		}
		if peer != dc {
			peers[peer] = a
		}
	}
	net := transport.NewTCP(server.Routes(peers, topo.NodesPerDC))
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

	var rec *trace.Recorder
	if *traceOn {
		rec = trace.New(trace.Config{SlowThreshold: *traceSlow})
		log.Printf("flight recorder on (slow threshold %s)", rec.SlowThreshold())
	}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: topo.NodesPerDC, Clients: 0, ClientDC: -1})
	d, err := server.Start(dc, net, cl, coreConfig(mode, topo.ConstraintList(), rec), dataDirs(*dataDir), *gwMode)
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range d.Nodes {
		if !d.Durable {
			log.Printf("storage node %s up (shard %d/%d, mode %s)", n.ID(), i+1, topo.NodesPerDC, mode)
			continue
		}
		rs := n.Durability().Replay
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
			n.ID(), i+1, topo.NodesPerDC, mode, from, rs.Duration.Round(time.Millisecond))
	}
	if d.Durable {
		ckpt := "off (full-log recovery)"
		if *ckptEvery > 0 {
			ckpt = ckptEvery.String()
		}
		log.Printf("durable engine: group-commit, checkpoints every %s", ckpt)
	}
	if gw := d.Gateway; gw != nil {
		resolved := gw.Tuning()
		log.Printf("gateway tier up as %s (one coordinator, batch %s, coalesce %s, read tier on)",
			gw.ID(), resolved.BatchWindow, resolved.CoalesceWindow)
	}
	log.Printf("%s serving on %s (shard ring epoch %d, %d active groups)",
		dc, bound, cl.Ring().Epoch(), len(cl.Ring().Current().Groups()))
	var ops *opsState
	if *httpAddr != "" {
		ops = serveHTTP(*httpAddr, dc, cl, d, net, rec, *profile)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	// Gate the HTTP endpoints first: Close waits out in-flight handlers
	// and flips them to 503, so nothing below races a /metrics scrape.
	ops.Close()
	server.Close(net, d)
}

// coreConfig is the protocol config this server runs: server.Config,
// plus the flight recorder under -trace and the checkpoint interval
// under -data (DESIGN.md §14 lists both).
func coreConfig(mode core.Mode, constraints []record.Constraint, rec *trace.Recorder) core.Config {
	cfg := server.Config(mode, constraints)
	cfg.Tracer = rec
	if *dataDir != "" {
		cfg.CheckpointInterval = *ckptEvery
	}
	return cfg
}

// dataDirs is -data's layout: shard i keeps its state in
// <data>/shard<i>, nil (in memory) without -data. A changed layout
// would open an existing data directory empty.
func dataDirs(data string) func(shard int) string {
	if data == "" {
		return nil
	}
	return func(i int) string { return filepath.Join(data, fmt.Sprintf("shard%d", i)) }
}
