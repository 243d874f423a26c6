package bench

import (
	"time"

	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/server"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/trace"
	"mdcc/internal/transport"
)

// deployment is the simulated cluster every harness in this package
// measures. Build order is fixed — cluster, latency map, network,
// storage nodes, preload, gateways — because constructing a node
// schedules its timers, so the order is part of what a seed replays.
type deployment struct {
	cl     *topology.Cluster
	net    *simnet.Net
	stores []*kv.Store         // parallel to cl.Storage (Megastore*: one per DC)
	nodes  []*core.StorageNode // parallel to cl.Storage; core protocols only
	gws    map[topology.DC]*gateway.Gateway
}

// newDeployment lays out the cluster and its WAN (10 % jitter, each
// node busy service per message); extra places nodes the layout does
// not know (gateway members, Megastore* replicas).
func newDeployment(layout topology.Layout, extra map[transport.NodeID]topology.DC, service time.Duration, seed int64) *deployment {
	cl := topology.NewCluster(layout)
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(extra), JitterFrac: 0.10, ServiceTime: service, Seed: seed})
	return &deployment{cl: cl, net: net}
}

// startCore starts a core storage node over a fresh in-memory store in
// every storage slot.
func (d *deployment) startCore(cfg core.Config) {
	for _, n := range d.cl.Storage {
		store := kv.NewMemory()
		d.stores = append(d.stores, store)
		d.nodes = append(d.nodes, core.NewStorageNode(n.ID, n.DC, d.net, d.cl, cfg, store))
	}
}

// preload writes a record straight into the store of every replica of
// its shard (bulk load happens before the measured run, as on a real
// testbed).
func (d *deployment) preload(key record.Key, v record.Encoded, ver record.Version) {
	shard := d.cl.Shard(key)
	for i, n := range d.cl.Storage {
		if n.Index == shard {
			_ = d.stores[i].PutEncoded(key, v, ver)
		}
	}
}

// newHotKeyDeployment builds what both gateway-tier arms (the commit
// stampede and the read-mostly mix) run against: MDCC storage nodes
// with "units" >= 0 constrained, the hot keys preloaded with
// sc.InitialStock and, when gateways is set, a gateway per data center
// under tun. It also returns the nodes' config (the per-session
// baseline builds its coordinators from it) and the hot keys.
func newHotKeyDeployment(seed int64, sc GatewayScale, gateways bool, tun gateway.Tuning,
	rec *trace.Recorder) (*deployment, core.Config, []record.Key) {
	var extra map[transport.NodeID]topology.DC
	if gateways {
		extra = server.GatewayPlacement()
	}
	d := newDeployment(topology.Layout{
		NodesPerDC: sc.NodesPerDC,
		Clients:    sc.Sessions,
		ClientDC:   -1,
	}, extra, gatewayServiceTime, seed)
	cfg := server.Config(core.ModeMDCC, []record.Constraint{record.MinBound("units", 0)})
	cfg.Tracer = rec
	// Saturation pushes commit latency past the WAN-tuned defaults;
	// widen the recovery timeouts (identically for every arm) so the
	// comparison measures queueing, not recovery-storm amplification.
	cfg.OptionTimeout = 10 * time.Second
	cfg.RecoveryRetry = 5 * time.Second
	cfg.PendingTimeout = 30 * time.Second
	d.startCore(cfg)

	hot := make([]record.Key, hotKeys)
	for i := range hot {
		hot[i] = hotKey(i)
	}
	if sc.balancePerGroup > 0 {
		hot = balancedHotKeys(d.cl, sc.balancePerGroup)
	}
	for _, key := range hot {
		d.preload(key, record.Encode(record.Value{Attrs: map[string]int64{"units": sc.InitialStock}}), 1)
	}
	if gateways {
		d.gws = make(map[topology.DC]*gateway.Gateway)
		for _, dc := range topology.AllDCs() {
			d.gws[dc] = gateway.New(dc, d.net, d.cl, cfg, tun)
		}
	}
	return d, cfg, hot
}

// gatewayMetrics sums the per-DC gateways' metrics.
func (d *deployment) gatewayMetrics() gateway.Metrics {
	var m gateway.Metrics
	for _, dc := range topology.AllDCs() {
		m.Add(d.gws[dc].Metrics())
	}
	return m
}
