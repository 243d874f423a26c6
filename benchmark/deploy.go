package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mdcc"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// session is the blocking client surface the load generator drives:
// mdcc.Session and mdcc.RemoteSession in untraced runs, localSession in
// traced Local runs.
type session interface {
	Read(key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error)
	ReadLatest(key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error)
	Commit(updates ...mdcc.Update) (bool, error)
}

const homeDC = mdcc.USWest

// deployment is one booted system under test.
type deployment struct {
	sessions []session
	// stats sums the counters of every transport. MsgsSent counts the
	// envelopes handed to a Send (a Batch counts once), the RPC clients'
	// included.
	stats func() transport.Stats
	close func() // idempotent

	// Set by the self-assembled (traced and TCP) deployments only.
	nodes  []*core.StorageNode
	gw     *gateway.Gateway
	coords []*core.Coordinator
	// Durable runs: one data directory per storage node.
	dataDirs []string
	injected transport.LatencyFunc // configured one-way latency, nil on TCP
}

func constraintsFor(s spec) []mdcc.Constraint {
	if s.commute {
		return []mdcc.Constraint{mdcc.MinBound(stockAttr, 0)}
	}
	return nil
}

// start boots the workload's deployment. Untraced Local workloads go
// through the public mdcc.StartCluster; TCP workloads assemble the five
// servers in process exactly as remote_test.go's startTCPDeployment and
// cmd/mdcc-server do and attach public mdcc.DialGateway clients. With a
// tracer every transport is wrapped, which the public Cluster does not
// allow, so the Local deployment is assembled here from the same parts.
func start(s spec, seed int64, dataRoot string, tr *tracer) (*deployment, error) {
	switch {
	case s.tcp:
		return startTCP(s, dataRoot, tr)
	case tr == nil:
		return startCluster(s, seed)
	default:
		return startLocalTraced(s, seed, tr)
	}
}

func startCluster(s spec, seed int64) (*deployment, error) {
	c, err := mdcc.StartCluster(mdcc.ClusterConfig{
		LatencyScale: s.scale,
		Constraints:  constraintsFor(s),
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	d := &deployment{stats: c.TransportStats, close: c.Close}
	for i := 0; i < clientSessions; i++ {
		if s.gateway {
			d.sessions = append(d.sessions, c.Gateway(homeDC).Session())
		} else {
			d.sessions = append(d.sessions, c.Session(homeDC))
		}
	}
	return d, nil
}

// startLocalTraced mirrors mdcc.StartCluster (latency geometry, jitter,
// timeouts scaled with the latency) over a traced transport.Local.
func startLocalTraced(s spec, seed int64, tr *tracer) (*deployment, error) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	extra := make(map[transport.NodeID]topology.DC)
	for _, dc := range topology.AllDCs() {
		for _, id := range gateway.NodeIDs(dc, gateway.Tuning{}) {
			extra[id] = dc
		}
	}
	for i := 0; i < clientSessions; i++ {
		extra[sessionID(i)] = homeDC
	}
	base := cl.LatencyWith(extra)
	scaled := func(from, to transport.NodeID) time.Duration {
		return time.Duration(float64(base(from, to)) * s.scale)
	}
	local := transport.NewLocal(transport.UniformJitter(scaled, 0.1, rand.New(rand.NewSource(seed))))
	local.SetTracer(tr)
	net := tracedNet{Network: local, tr: tr}

	cfg := core.Defaults(core.ModeMDCC)
	cfg.Constraints = constraintsFor(s)
	floor := func(d, min time.Duration) time.Duration {
		if d = time.Duration(float64(d) * s.scale); d < min {
			return min
		}
		return d
	}
	cfg.OptionTimeout = floor(cfg.OptionTimeout, 100*time.Millisecond)
	cfg.RecoveryRetry = floor(cfg.RecoveryRetry, 80*time.Millisecond)
	cfg.PendingTimeout = floor(cfg.PendingTimeout, 500*time.Millisecond)
	cfg.ReadTimeout = floor(cfg.ReadTimeout, 60*time.Millisecond)

	d := &deployment{stats: local.Stats, injected: scaled}
	for _, n := range cl.Storage {
		d.nodes = append(d.nodes, core.NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory()))
	}
	if s.gateway {
		d.gw = gateway.New(homeDC, net, cl, cfg, gateway.Tuning{})
	}
	for i := 0; i < clientSessions; i++ {
		// mdcc.Session's deadline: room for several recoveries, at least 2 s.
		ls := &localSession{timeout: max(4*cfg.OptionTimeout+4*cfg.RecoveryRetry, 2*time.Second)}
		if s.gateway {
			ls.read, ls.readQuorum, ls.commit = d.gw.Read, d.gw.ReadQuorum, d.gw.Commit
		} else {
			id := sessionID(i)
			co := core.NewCoordinator(id, homeDC, net, cl, cfg)
			d.coords = append(d.coords, co)
			on := func(f func()) { net.After(id, 0, f) }
			ls.read = func(k record.Key, cb func(record.Value, record.Version, bool)) {
				on(func() { co.Read(k, cb) })
			}
			ls.readQuorum = func(k record.Key, cb func(record.Value, record.Version, bool)) {
				on(func() { co.ReadQuorum(k, cb) })
			}
			ls.commit = func(ups []record.Update, done func(bool, error)) {
				on(func() { co.Commit(ups, func(r core.CommitResult) { done(r.Committed, r.Err) }) })
			}
		}
		d.sessions = append(d.sessions, ls)
	}
	d.close = func() { // both idempotent
		if d.gw != nil {
			d.gw.Close()
		}
		local.Close()
	}
	return d, nil
}

func sessionID(i int) transport.NodeID { return transport.NodeID(fmt.Sprintf("session%d", i+1)) }

// localSession turns the callback API of a coordinator or gateway into
// the blocking session surface, as mdcc.Session does.
type localSession struct {
	read, readQuorum func(record.Key, func(record.Value, record.Version, bool))
	commit           func([]record.Update, func(bool, error))
	timeout          time.Duration
}

type readResult struct {
	val    record.Value
	ver    record.Version
	exists bool
}

func (s *localSession) await(issue func(record.Key, func(record.Value, record.Version, bool)), key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error) {
	ch := make(chan readResult, 1)
	issue(key, func(v record.Value, ver record.Version, ok bool) { ch <- readResult{v, ver, ok} })
	select {
	case r := <-ch:
		return r.val, r.ver, r.exists, nil
	case <-time.After(s.timeout):
		return mdcc.Value{}, 0, false, mdcc.ErrTimeout
	}
}

func (s *localSession) Read(key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error) {
	return s.await(s.read, key)
}

func (s *localSession) ReadLatest(key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error) {
	return s.await(s.readQuorum, key)
}

func (s *localSession) Commit(updates ...mdcc.Update) (bool, error) {
	type result struct {
		ok  bool
		err error
	}
	ch := make(chan result, 1)
	s.commit(updates, func(ok bool, err error) { ch <- result{ok, err} })
	select {
	case r := <-ch:
		return r.ok, r.err
	case <-time.After(s.timeout):
		return false, mdcc.ErrTimeout
	}
}

// rpcSession counts the envelopes a gateway RPC client sends: its
// transport is private to mdcc.RemoteSession, and every call is exactly
// one Send.
type rpcSession struct {
	*mdcc.RemoteSession
	sends *atomic.Int64
}

func (s rpcSession) Read(key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error) {
	s.sends.Add(1)
	return s.RemoteSession.Read(key)
}

func (s rpcSession) ReadLatest(key mdcc.Key) (mdcc.Value, mdcc.Version, bool, error) {
	s.sends.Add(1)
	return s.RemoteSession.ReadLatest(key)
}

func (s rpcSession) Commit(updates ...mdcc.Update) (bool, error) {
	s.sends.Add(1)
	return s.RemoteSession.Commit(updates...)
}

// openDurable opens a node's durable state the way cmd/mdcc-server -data
// does.
func openDurable(dir string) (*core.DurableState, error) {
	return core.OpenDurableOpts(dir, core.DurableOptions{GroupCommit: true})
}

func startTCP(s spec, dataRoot string, tr *tracer) (_ *deployment, err error) {
	// Shutdown order is cmd/mdcc-server's: clients, gateways, transports,
	// then the durable state the handlers were writing to.
	d := &deployment{}
	var clients, gateways, transports, durables []func()
	d.close = sync.OnceFunc(func() {
		for _, group := range [][]func(){clients, gateways, transports, durables} {
			for _, f := range group {
				f()
			}
		}
	})
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	nets := make(map[topology.DC]*transport.TCP)
	addrs := make(map[string]string)
	for _, dc := range topology.AllDCs() {
		net := transport.NewTCP(nil)
		addr, err := net.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		nets[dc], addrs[dc.String()] = net, addr
		transports = append(transports, net.Close)
	}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	cfg := core.Defaults(core.ModeMDCC)
	if s.durable {
		cfg.CheckpointInterval = 30 * time.Second
	}
	for _, dc := range topology.AllDCs() {
		tcp := nets[dc]
		for _, peer := range topology.AllDCs() {
			if peer == dc {
				continue
			}
			tcp.AddRoute(topology.StorageID(peer, 0), addrs[peer.String()])
			for _, id := range gateway.RouteIDs(peer) {
				tcp.AddRoute(id, addrs[peer.String()])
			}
		}
		var net transport.Network = tcp
		if tr != nil {
			tcp.SetTracer(tr)
			net = tracedNet{Network: tcp, tr: tr}
		}
		id := topology.StorageID(dc, 0)
		if s.durable {
			dir := filepath.Join(dataRoot, dc.String())
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			ds, err := openDurable(dir)
			if err != nil {
				return nil, err
			}
			durables = append(durables, func() { _ = ds.Close() })
			d.dataDirs = append(d.dataDirs, dir)
			d.nodes = append(d.nodes, core.NewDurableStorageNode(id, dc, net, cl, cfg, ds))
		} else {
			d.nodes = append(d.nodes, core.NewStorageNode(id, dc, net, cl, cfg, kv.NewMemory()))
		}
		gw := gateway.New(dc, net, cl, cfg, gateway.Tuning{})
		gateways = append(gateways, gw.Close)
		if dc == homeDC {
			d.gw = gw
		}
	}

	var clientSends atomic.Int64
	topo := &mdcc.RemoteTopology{NodesPerDC: 1, Mode: "mdcc", Addrs: addrs}
	for i := 0; i < clientSessions; i++ {
		rs, err := mdcc.DialGateway(topo, homeDC, fmt.Sprintf("bench-%d", i), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		clients = append(clients, rs.Close)
		d.sessions = append(d.sessions, rpcSession{rs, &clientSends})
	}

	d.stats = func() transport.Stats {
		total := transport.Stats{MsgsSent: clientSends.Load()}
		for _, net := range nets {
			st := net.Stats()
			total.MsgsSent += st.MsgsSent
			total.BytesSent += st.BytesSent
			total.DroppedNoRoute += st.DroppedNoRoute
			total.DroppedQueueFull += st.DroppedQueueFull
			total.DroppedConnDown += st.DroppedConnDown
		}
		return total
	}
	return d, nil
}
