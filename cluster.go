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
	"mdcc/internal/kv"
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
	// SyncInterval enables background anti-entropy between replicas
	// (catch-up after outages); zero disables.
	SyncInterval time.Duration
	// Seed randomizes latency jitter.
	Seed int64
}

// checkpointEvery is how often a DataDir cluster's nodes snapshot
// their state and truncate their WALs (mdcc-server's
// -checkpoint-interval default).
const checkpointEvery = 30 * time.Second

// Cluster is an in-process five-data-center MDCC deployment running
// on the real-time transport.
type Cluster struct {
	coreCfg core.Config
	net     *transport.Local
	cl      *topology.Cluster
	durable []*core.DurableState // DataDir clusters only
	mu      sync.Mutex
	gws     map[DC]*Gateway
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

	// Gateway nodes (one gateway + its coordinator per DC) live in
	// their data center for latency purposes, whether or not a gateway
	// is ever created.
	extra := make(map[transport.NodeID]topology.DC)
	for _, dc := range topology.AllDCs() {
		for _, id := range gateway.NodeIDs(dc, gateway.Tuning{}) {
			extra[id] = dc
		}
	}
	base := cl.LatencyWith(extra)
	scale := cfg.LatencyScale
	scaled := func(from, to transport.NodeID) time.Duration {
		return time.Duration(float64(base(from, to)) * scale)
	}
	lat := transport.UniformJitter(scaled, 0.1, rand.New(rand.NewSource(cfg.Seed)))
	net := transport.NewLocal(lat)

	// The core protocol configuration is derived exactly once and
	// shared by storage nodes, sessions and gateways.
	coreCfg := clusterCoreConfig(cfg)

	c := &Cluster{coreCfg: coreCfg, net: net, cl: cl, gws: make(map[DC]*Gateway)}
	for _, n := range cl.Storage {
		if cfg.DataDir == "" {
			core.NewStorageNode(n.ID, n.DC, net, cl, coreCfg, kv.NewMemory())
			continue
		}
		ds, err := core.OpenDurableOpts(filepath.Join(cfg.DataDir, string(n.ID)), core.DurableOptions{GroupCommit: true})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.durable = append(c.durable, ds)
		core.NewDurableStorageNode(n.ID, n.DC, net, cl, coreCfg, ds)
	}
	return c, nil
}

// clusterCoreConfig derives the protocol configuration, scaling the
// timeouts with the latency scale so compressed clusters stay snappy.
func clusterCoreConfig(cfg ClusterConfig) core.Config {
	coreCfg := core.Defaults(cfg.Mode)
	coreCfg.Constraints = cfg.Constraints
	coreCfg.SyncInterval = cfg.SyncInterval
	if cfg.DataDir != "" {
		coreCfg.CheckpointInterval = checkpointEvery
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
	if g, ok := c.gws[dc]; ok {
		return g
	}
	gw := gateway.New(dc, c.net, c.cl, c.coreCfg, gateway.Tuning{})
	g := &Gateway{dc: dc, gw: gw, cfg: c.coreCfg}
	c.gws[dc] = g
	return g
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
	for _, g := range c.gws {
		g.gw.Close()
	}
	c.net.Close()
	for _, ds := range c.durable {
		_ = ds.Close() // flushes and releases the node's WAL; nothing to report to
	}
}
