// Package bench is the experiment harness: it builds a full simulated
// deployment (storage nodes, clients, WAN) for any of the compared
// protocols, drives workloads through the uniform mtx.Client
// interface in closed loops, injects failures on schedule, and
// collects the latency distributions, throughput numbers and time
// series that regenerate the paper's figures.
package bench

import (
	"fmt"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/kv"
	"mdcc/internal/megastore"
	"mdcc/internal/mtx"
	"mdcc/internal/qw"
	"mdcc/internal/record"
	"mdcc/internal/server"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/twopc"
)

// Protocol selects the system under test.
type Protocol string

// The seven configurations of the paper's evaluation.
const (
	ProtoMDCC      Protocol = "MDCC"       // fast + commutative
	ProtoFast      Protocol = "Fast"       // fast, no commutative
	ProtoMulti     Protocol = "Multi"      // classic ballots, stable masters
	Proto2PC       Protocol = "2PC"        // two-phase commit
	ProtoQW3       Protocol = "QW-3"       // quorum writes, W=3
	ProtoQW4       Protocol = "QW-4"       // quorum writes, W=4
	ProtoMegastore Protocol = "Megastore*" // entity-group log
)

// AllProtocols lists every configuration (figure 3/4 order).
func AllProtocols() []Protocol {
	return []Protocol{ProtoQW3, ProtoQW4, ProtoMDCC, Proto2PC, ProtoMegastore}
}

// Options configures a World.
type Options struct {
	Protocol    Protocol
	NodesPerDC  int
	Clients     int
	ClientDC    int // -1 = geo-distributed round-robin
	Seed        int64
	Constraints []record.Constraint
	// DropProb uniformly drops messages (chaos tests).
	DropProb float64
	// SyncInterval is the core anti-entropy period; zero, what the
	// paper's figures run, disables it (chaos tests set one).
	SyncInterval time.Duration
}

// serviceTime is each storage node's busy time per message: ~4k
// messages/second (m1.large-era boxes). Higher values saturate the
// 2-node-per-DC micro-benchmark deployments at 100 clients and drown
// protocol latency in queueing delay.
const serviceTime = 250 * time.Microsecond

// World is a ready-to-run deployment.
type World struct {
	Opts    Options
	Net     *simnet.Net
	Cluster *topology.Cluster
	Clients []mtx.Client

	*deployment // Net and Cluster are its net and cl
}

// NewWorld builds the deployment for opts.
func NewWorld(opts Options) *World {
	if opts.NodesPerDC < 1 {
		opts.NodesPerDC = 1
	}
	extra := map[transport.NodeID]topology.DC{}
	if opts.Protocol == ProtoMegastore {
		for _, dc := range topology.AllDCs() {
			extra[megastore.ReplicaIDFor(dc)] = dc
		}
	}
	d := newDeployment(topology.Layout{
		NodesPerDC: opts.NodesPerDC,
		Clients:    opts.Clients,
		ClientDC:   opts.ClientDC,
	}, extra, simnet.Options{
		JitterFrac:  0.10,
		ServiceTime: serviceTime,
		DropProb:    opts.DropProb,
		Seed:        opts.Seed,
	})
	cl, net := d.cl, d.net
	w := &World{Opts: opts, Net: net, Cluster: cl, deployment: d}

	switch opts.Protocol {
	case ProtoMDCC, ProtoFast, ProtoMulti:
		w.buildCore(opts, cl, net)
	case Proto2PC:
		w.build2PC(opts, cl, net)
	case ProtoQW3:
		w.buildQW(cl, net, 3)
	case ProtoQW4:
		w.buildQW(cl, net, 4)
	case ProtoMegastore:
		w.buildMegastore(cl, net)
	default:
		panic(fmt.Sprintf("bench: unknown protocol %q", opts.Protocol))
	}
	return w
}

func (w *World) buildCore(opts Options, cl *topology.Cluster, net *simnet.Net) {
	cfg := opts.coreConfig()
	w.startCore(cfg)
	for _, c := range cl.Clients {
		w.Clients = append(w.Clients, core.NewCoordinator(c.ID, c.DC, net, cl, cfg).Client())
	}
}

// coreConfig is a core protocol's config for the paper's baselines: the
// server's, with what opts varies (DESIGN.md §14, `bench.Options`).
func (opts Options) coreConfig() core.Config {
	mode := core.ModeMDCC
	switch opts.Protocol {
	case ProtoFast:
		mode = core.ModeFast
	case ProtoMulti:
		mode = core.ModeMulti
	}
	cfg := server.Config(mode, opts.Constraints)
	cfg.SyncInterval = opts.SyncInterval
	return cfg
}

func (w *World) build2PC(opts Options, cl *topology.Cluster, net *simnet.Net) {
	for _, n := range cl.Storage {
		store := kv.NewMemory()
		w.stores = append(w.stores, store)
		twopc.NewParticipant(n.ID, net, store, opts.Constraints, 10*time.Second)
	}
	for _, c := range cl.Clients {
		w.Clients = append(w.Clients, twopc.NewCoordinator(c.ID, c.DC, net, cl, 5*time.Second))
	}
}

func (w *World) buildQW(cl *topology.Cluster, net *simnet.Net, quorum int) {
	for _, n := range cl.Storage {
		store := kv.NewMemory()
		w.stores = append(w.stores, store)
		qw.NewStorageNode(n.ID, net, store)
	}
	for _, c := range cl.Clients {
		w.Clients = append(w.Clients, qw.NewClient(c.ID, c.DC, net, cl, quorum))
	}
}

func (w *World) buildMegastore(cl *topology.Cluster, net *simnet.Net) {
	var west *megastore.Replica
	for _, dc := range topology.AllDCs() {
		store := kv.NewMemory()
		w.stores = append(w.stores, store)
		r := megastore.NewReplica(megastore.ReplicaIDFor(dc), net, store)
		if dc == topology.USWest {
			west = r
		}
	}
	megastore.NewMaster(net, cl, west)
	for _, c := range cl.Clients {
		w.Clients = append(w.Clients, megastore.NewClient(c.ID, c.DC, net))
	}
}

// ClientDC returns the data center client i runs in.
func (w *World) ClientDC(i int) topology.DC {
	return w.Cluster.Clients[i].DC
}

// Preload writes initial records directly into every replica's store
// (bulk load happens before the measured run, as on a real testbed).
func (w *World) Preload(entries []kv.Entry) {
	if w.Opts.Protocol == ProtoMegastore {
		// One full copy per DC replica.
		for _, s := range w.stores {
			for _, e := range entries {
				_ = s.PutEncoded(e.Key, e.Value, e.Version)
			}
		}
		return
	}
	// Range-partitioned: each storage node holds its shard.
	for _, e := range entries {
		w.preload(e.Key, e.Value, e.Version)
	}
}

// FailDC fails every storage node of a data center (figure 8's
// simulated outage: the DC stops receiving messages).
func (w *World) FailDC(dc topology.DC) {
	for _, n := range w.Cluster.StorageIn(dc) {
		w.Net.Fail(n.ID)
	}
	if w.Opts.Protocol == ProtoMegastore {
		w.Net.Fail(megastore.ReplicaIDFor(dc))
	}
}

// StoreOf returns the committed state of key at its replica in the
// data center with index dc (validation hooks for tests).
func (w *World) StoreOf(key record.Key, dc int) (record.Value, record.Version, bool) {
	if w.Opts.Protocol == ProtoMegastore {
		return w.stores[dc].Get(key)
	}
	shard := w.Cluster.Shard(key)
	for i, n := range w.Cluster.Storage {
		if int(n.DC) == dc && n.Index == shard {
			return w.stores[i].Get(key)
		}
	}
	return record.Value{}, 0, false
}
