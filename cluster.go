package mdcc

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/server"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// ClusterConfig shapes an in-process cluster.
type ClusterConfig struct {
	// Mode selects the protocol variant (default ModeMDCC).
	Mode Mode
	// NodesPerDC is the number of storage nodes (shards) per data
	// center (default 1).
	NodesPerDC int
	// Constraints are enforced on commutative updates cluster-wide.
	Constraints []Constraint
	// LatencyScale multiplies the realistic inter-DC latencies
	// (hundreds of ms). 1.0 feels like the real WAN; 0.02 makes
	// examples snappy while preserving relative geometry. Default 0.05.
	LatencyScale float64
	// DataDir, when set, gives every storage node the durable engine
	// mdcc-server -data runs (one group-commit WAL per node holding its
	// committed puts and decisions, periodic checkpoints) under
	// DataDir/<node>; empty means in-memory. A node directory in an
	// older layout is refused (core.OpenDurableOpts).
	DataDir string
	// Seed randomizes latency jitter.
	Seed int64
}

// Cluster is an in-process five-data-center MDCC deployment running
// on the real-time transport.
type Cluster struct {
	coreCfg core.Config
	net     *transport.Local
	cl      *topology.Cluster
	dcs     []*server.DC // indexed by DC
	mu      sync.Mutex   // guards the gateways and closed
	nextCli atomic.Int64
	closed  bool
}

// StartCluster builds and starts an in-process cluster.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NodesPerDC < 1 {
		cfg.NodesPerDC = 1
	}
	if cfg.LatencyScale <= 0 {
		cfg.LatencyScale = 0.05
	}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: cfg.NodesPerDC, Clients: 0, ClientDC: -1})

	base := cl.LatencyWith(server.GatewayPlacement())
	scale := cfg.LatencyScale
	scaled := func(from, to transport.NodeID) time.Duration {
		return time.Duration(float64(base(from, to)) * scale)
	}
	lat := transport.UniformJitter(scaled, 0.1, rand.New(rand.NewSource(cfg.Seed)))
	net := transport.NewLocal(lat)

	// The core protocol configuration is derived exactly once and
	// shared by storage nodes, sessions and gateways.
	coreCfg := clusterCoreConfig(cfg)

	c := &Cluster{coreCfg: coreCfg, net: net, cl: cl}
	for _, dc := range topology.AllDCs() {
		// DataDir's layout: a node keeps its state in <DataDir>/<dc>/store<i>,
		// its id as a path. A changed layout would open an old DataDir empty.
		var dir func(int) string
		if cfg.DataDir != "" {
			dir = func(i int) string { return filepath.Join(cfg.DataDir, string(topology.StorageID(dc, i))) }
		}
		d, err := server.Start(dc, net, cl, coreCfg, dir, false)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.dcs = append(c.dcs, d)
	}
	return c, nil
}

// clusterCoreConfig derives the protocol configuration, scaling the
// timeouts with the latency scale so compressed clusters stay snappy.
func clusterCoreConfig(cfg ClusterConfig) core.Config {
	coreCfg := server.Config(cfg.Mode, cfg.Constraints)
	if cfg.DataDir != "" {
		coreCfg.CheckpointInterval = server.CheckpointEvery
	}
	s := cfg.LatencyScale
	if s < 1 {
		floor := func(d, min time.Duration) time.Duration {
			d = time.Duration(float64(d) * s)
			if d < min {
				return min
			}
			return d
		}
		coreCfg.OptionTimeout = floor(coreCfg.OptionTimeout, 100*time.Millisecond)
		coreCfg.RecoveryRetry = floor(coreCfg.RecoveryRetry, 80*time.Millisecond)
		coreCfg.PendingTimeout = floor(coreCfg.PendingTimeout, 500*time.Millisecond)
		coreCfg.ReadTimeout = floor(coreCfg.ReadTimeout, 60*time.Millisecond)
	}
	return coreCfg
}

// Session opens a client session homed in the given data center, with
// a private coordinator (the paper's app-server library model). For
// high-fan-in deployments prefer Gateway(dc).Session().
func (c *Cluster) Session(dc DC) *Session {
	id := transport.NodeID(fmt.Sprintf("session%d", c.nextCli.Add(1)))
	coord := core.NewCoordinator(id, dc, c.net, c.cl, c.coreCfg)
	return newSession(coordBackend{id: id, net: c.net, coord: coord}, c.coreCfg)
}

// Gateway returns the data center's shared transaction gateway,
// creating it on first use. All sessions obtained from it multiplex
// over one coordinator with cross-transaction batching and hot-key
// delta coalescing.
func (c *Cluster) Gateway(dc DC) *Gateway {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.dcs[dc]
	if d.Gateway == nil {
		d.Gateway = gateway.New(dc, c.net, c.cl, c.coreCfg, gateway.Tuning{})
	}
	return &Gateway{dc: dc, gw: d.Gateway, cfg: c.coreCfg}
}

// FailDC simulates a data-center outage: every storage node in dc
// stops sending and receiving until RecoverDC.
func (c *Cluster) FailDC(dc DC) {
	for _, n := range c.cl.StorageIn(dc) {
		c.net.Fail(n.ID)
	}
}

// RecoverDC ends a simulated outage.
func (c *Cluster) RecoverDC(dc DC) {
	for _, n := range c.cl.StorageIn(dc) {
		c.net.Recover(n.ID)
	}
}

// TransportStats snapshots the in-process transport's counters
// (messages, batch envelopes).
func (c *Cluster) TransportStats() transport.Stats { return c.net.Stats() }

// Close shuts the cluster down and closes durable stores.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	server.Close(c.net, c.dcs...)
}
