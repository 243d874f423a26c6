// Package server is the one composition root: mdcc-server,
// mdcc.StartCluster, the scenario harness and the root package's
// loopback TCP deployment build a data center through it, and DESIGN.md
// §14 lists each core.Config field one of them sets otherwise, and why.
package server

import (
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// CheckpointEvery is how often a durable node snapshots its state and
// truncates its WAL (mdcc-server's -checkpoint-interval default).
const CheckpointEvery = 30 * time.Second

// Config is the protocol configuration mdcc-server runs under default
// flags.
func Config(mode core.Mode, constraints []record.Constraint) core.Config {
	cfg := core.Defaults(mode)
	cfg.Constraints = constraints
	return cfg
}

// OpenNode builds storage node id over a fresh in-memory store when dir
// is empty, else over the durable state at dir opened with opts.
func OpenNode(id transport.NodeID, dc topology.DC, net transport.Network, cl *topology.Cluster,
	cfg core.Config, dir string, opts core.DurableOptions) (*core.StorageNode, error) {
	if dir == "" {
		return core.NewStorageNode(id, dc, net, cl, cfg, kv.NewMemory()), nil
	}
	ds, err := core.OpenDurableOpts(dir, opts)
	if err != nil {
		return nil, err
	}
	return core.NewDurableStorageNode(id, dc, net, cl, cfg, ds), nil
}

// DC is one data center's share of a deployment.
type DC struct {
	Nodes   []*core.StorageNode // in shard order
	Durable bool                // the nodes keep their state on disk
	Gateway *gateway.Gateway    // nil when none was started
}

// Start builds dc's storage nodes in shard order, shard i over dir(i)
// with mdcc-server's durable engine or in memory when dir is nil, and
// then, with withGateway, its gateway. On error it closes what it
// opened.
func Start(dc topology.DC, net transport.Network, cl *topology.Cluster, cfg core.Config,
	dir func(shard int) string, withGateway bool) (*DC, error) {
	d := &DC{Durable: dir != nil}
	for _, sn := range cl.StorageIn(dc) {
		path := ""
		if dir != nil {
			path = dir(sn.Index)
		}
		n, err := OpenNode(sn.ID, dc, net, cl, cfg, path, core.DurableOptions{GroupCommit: true})
		if err != nil {
			closeStores(d)
			return nil, err
		}
		d.Nodes = append(d.Nodes, n)
	}
	if withGateway {
		d.Gateway = gateway.New(dc, net, cl, cfg, gateway.Tuning{})
	}
	return d, nil
}

// CloseDrain bounds each wait of a shutdown for its last messages: for
// a coordinator's flush, then for a TCP transport's writers.
const CloseDrain = time.Second

// Close shuts data centers down in mdcc-server's order: the gateways,
// whose coordinators hand what they still owe the replicas to the
// network, which sends it (Drain); the network; then the nodes' stores,
// so no handler writes into a closed log. net is the deployment's
// real-time transport, Local or TCP.
func Close(net interface {
	transport.Network
	Close()
}, dcs ...*DC) {
	var flushed []<-chan struct{}
	for _, d := range dcs {
		if d.Gateway != nil {
			d.Gateway.Close()
			if f := d.Gateway.Flushed(); f != nil {
				flushed = append(flushed, f)
			}
		}
	}
	Drain(net, flushed...)
	net.Close()
	for _, d := range dcs {
		closeStores(d)
	}
}

// Drain waits, for at most CloseDrain, until each coordinator flush in
// flushed has run, and then, when net is a TCP transport, for at most
// CloseDrain until its writers have put every queued frame on the wire.
func Drain(net transport.Network, flushed ...<-chan struct{}) {
	timeout := time.After(CloseDrain)
wait:
	for _, f := range flushed {
		select {
		case <-f:
		case <-timeout:
			break wait
		}
	}
	if tcp, ok := net.(*transport.TCP); ok {
		tcp.Drain(CloseDrain)
	}
}

func closeStores(d *DC) {
	for _, n := range d.Nodes {
		_ = n.Store().Close() // shutting down: nothing to report to
	}
}

// Routes is the TCP route table to the data centers in addrs: each
// one's storage nodes and gateway tier at its server. A server leaves
// its own data center out.
func Routes(addrs map[topology.DC]string, nodesPerDC int) map[transport.NodeID]string {
	routes := make(map[transport.NodeID]string)
	for dc, addr := range addrs {
		for i := 0; i < nodesPerDC; i++ {
			routes[topology.StorageID(dc, i)] = addr
		}
		for _, id := range gateway.RouteIDs(dc) {
			routes[id] = addr
		}
	}
	return routes
}

// GatewayPlacement homes every data center's gateway tier in its data
// center for a latency map, whether or not a gateway is ever started.
func GatewayPlacement() map[transport.NodeID]topology.DC {
	at := make(map[transport.NodeID]topology.DC)
	for _, dc := range topology.AllDCs() {
		for _, id := range gateway.RouteIDs(dc) {
			at[id] = dc
		}
	}
	return at
}
