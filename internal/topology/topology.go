// Package topology describes the geo-distributed deployment: the five
// EC2 regions of the paper's evaluation, a one-way latency matrix
// between them, and the cluster layout (storage nodes per data
// center, range partitions, replica groups, quorum sizes).
package topology

import (
	"fmt"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/ring"
	"mdcc/internal/transport"
)

// DC identifies a data center.
type DC int

// The paper's five Amazon EC2 regions.
const (
	USWest DC = iota // N. California
	USEast           // Virginia
	EUIreland
	APSingapore
	APTokyo
	numDCs
)

// NumDCs is the replica count N used throughout the paper (every data
// center holds a full replica).
const NumDCs = int(numDCs)

// String returns the region short name.
func (d DC) String() string {
	switch d {
	case USWest:
		return "us-west"
	case USEast:
		return "us-east"
	case EUIreland:
		return "eu-ie"
	case APSingapore:
		return "ap-sg"
	case APTokyo:
		return "ap-tk"
	default:
		return fmt.Sprintf("dc%d", int(d))
	}
}

// AllDCs lists every data center.
func AllDCs() []DC {
	out := make([]DC, NumDCs)
	for i := range out {
		out[i] = DC(i)
	}
	return out
}

// DefaultMasterDC is the default master placement: masters spread
// uniformly across data centers by key hash (the paper's Multi
// experiments use uniformly distributed masters).
func DefaultMasterDC(key record.Key) DC {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	return DC(int(h % uint32(NumDCs)))
}

// oneWayMS is the one-way inter-DC latency matrix in milliseconds,
// modeled on published EC2 inter-region RTTs circa 2012 (see
// DESIGN.md §6). Intra-DC hops cost 0.5 ms.
var oneWayMS = [NumDCs][NumDCs]float64{
	//          W     E     EU    SG    TK
	USWest:      {0.5, 40, 85, 90, 60},
	USEast:      {40, 0.5, 45, 130, 85},
	EUIreland:   {85, 45, 0.5, 135, 120},
	APSingapore: {90, 130, 135, 0.5, 45},
	APTokyo:     {60, 85, 120, 45, 0.5},
}

// OneWay returns the base one-way latency between two data centers.
func OneWay(a, b DC) time.Duration {
	return time.Duration(oneWayMS[a][b] * float64(time.Millisecond))
}

// RTT returns the base round-trip latency between two data centers.
func RTT(a, b DC) time.Duration { return OneWay(a, b) + OneWay(b, a) }

// Quorums returns the classic and fast quorum sizes for n replicas
// per the Fast Paxos requirements used in the paper (§3.3.1): classic
// = majority, fast = ceil(3n/4) — for n=5 that is 3 and 4, the
// "typical setting" the paper uses. The arithmetic is paxos.NewQuorum's.
func Quorums(n int) (classic, fast int) {
	q := paxos.NewQuorum(n)
	return q.Classic, q.Fast
}

// Node describes one simulated host.
type Node struct {
	ID transport.NodeID
	DC DC
	// Index is the per-DC storage node index (partition shard) or
	// the global client index.
	Index int
}

// Cluster is a full deployment: per-DC storage nodes plus clients.
type Cluster struct {
	StorageDCs []DC // usually all 5
	Storage    []Node
	Clients    []Node
	// shardRing maps keys to replica groups. Every provisioned group
	// (0..NodesPerDC-1) is a candidate; the ring's active set says who
	// owns keys right now, and live moves republish it (ring.Table.Install).
	shardRing *ring.Table
	// replicaIDs[group] lists the group's storage node ids in
	// StorageDCs order, formatted once here so routing a key (several
	// times per transaction) never formats a node id.
	replicaIDs [][]transport.NodeID
}

// Layout describes how to build a Cluster.
type Layout struct {
	NodesPerDC int // storage nodes (replica groups) per data center (≥1)
	Clients    int // total clients, assigned round-robin across DCs
	// ClientDC pins all clients to one DC (used by the figure-8
	// failure experiment and Megastore*'s in-paper favor). Negative
	// means geo-distributed round-robin.
	ClientDC int
	// Groups is the number of replica groups active in the initial
	// shard ring. Zero or out-of-range means all NodesPerDC groups.
	// A cluster provisioned with more groups than are active can grow
	// live: a shard move activates a spare group and re-homes its
	// slice of the keyspace.
	Groups int
}

// NewCluster builds the node catalogue for a layout.
func NewCluster(l Layout) *Cluster {
	if l.NodesPerDC < 1 {
		l.NodesPerDC = 1
	}
	c := &Cluster{StorageDCs: AllDCs()}
	active := l.Groups
	if active <= 0 || active > l.NodesPerDC {
		active = l.NodesPerDC
	}
	groups := make([]int, active)
	for i := range groups {
		groups[i] = i
	}
	c.shardRing = ring.NewTable(ring.New(groups, ring.DefaultVPoints))
	c.replicaIDs = make([][]transport.NodeID, l.NodesPerDC)
	for _, dc := range c.StorageDCs {
		for i := 0; i < l.NodesPerDC; i++ {
			id := StorageID(dc, i)
			c.Storage = append(c.Storage, Node{
				ID:    id,
				DC:    dc,
				Index: i,
			})
			c.replicaIDs[i] = append(c.replicaIDs[i], id)
		}
	}
	for i := 0; i < l.Clients; i++ {
		dc := DC(i % NumDCs)
		if l.ClientDC >= 0 {
			dc = DC(l.ClientDC)
		}
		c.Clients = append(c.Clients, Node{
			ID:    ClientID(i),
			DC:    dc,
			Index: i,
		})
	}
	return c
}

// StorageID names a storage node.
func StorageID(dc DC, index int) transport.NodeID {
	return transport.NodeID(fmt.Sprintf("%s/store%d", dc, index))
}

// ClientID names a client (app-server running the DB library).
func ClientID(i int) transport.NodeID {
	return transport.NodeID(fmt.Sprintf("client%d", i))
}

// StorageIn lists dc's storage nodes: what a data-center outage takes
// down, and what a DC-local gateway subscribes to.
func (c *Cluster) StorageIn(dc DC) []Node {
	var out []Node
	for _, n := range c.Storage {
		if n.DC == dc {
			out = append(out, n)
		}
	}
	return out
}

// ReplicationFactor returns N (one replica per DC).
func (c *Cluster) ReplicationFactor() int { return len(c.StorageDCs) }

// Shard maps a record key to its owning replica group (the per-DC
// storage node index) under the cluster's current shard ring.
// Placement is a pure function of the published ring epoch, so every
// node holding the same epoch routes the key identically; a live move
// republishing the ring re-homes exactly the moved slice.
func (c *Cluster) Shard(key record.Key) int {
	return c.shardRing.Owner(string(key))
}

// Ring exposes the cluster's shard ring table: the current epoch for
// routing and fencing, Install for publication by a shard move.
func (c *Cluster) Ring() *ring.Table { return c.shardRing }

// Replicas returns the storage node IDs (one per DC, in StorageDCs
// order) responsible for a key — the Paxos acceptors for that record.
// The slice is the cluster's own table, shared by every caller: read
// it, do not modify it.
func (c *Cluster) Replicas(key record.Key) []transport.NodeID {
	return c.replicaIDs[c.Shard(key)]
}

// ReplicaIn returns the key's storage node in one specific DC (the
// "local replica" for reads).
func (c *Cluster) ReplicaIn(key record.Key, dc DC) transport.NodeID {
	ids := c.replicaIDs[c.Shard(key)]
	for i, d := range c.StorageDCs {
		if d == dc {
			return ids[i]
		}
	}
	return StorageID(dc, c.Shard(key)) // a DC that stores nothing: the name it would have
}

// NodeDC looks up the DC a node belongs to; ok is false for unknown
// IDs.
func (c *Cluster) NodeDC(id transport.NodeID) (DC, bool) {
	for _, n := range c.Storage {
		if n.ID == id {
			return n.DC, true
		}
	}
	for _, n := range c.Clients {
		if n.ID == id {
			return n.DC, true
		}
	}
	return 0, false
}

// LatencyWith builds the base (jitter-free) latency function between
// nodes of this cluster for use by transports, with additional nodes
// that are not part of the regular storage/client catalogue (gateways,
// the Megastore* entity-group replicas; nil for none).
func (c *Cluster) LatencyWith(extra map[transport.NodeID]DC) transport.LatencyFunc {
	dcOf := make(map[transport.NodeID]DC, len(c.Storage)+len(c.Clients)+len(extra))
	for _, n := range c.Storage {
		dcOf[n.ID] = n.DC
	}
	for _, n := range c.Clients {
		dcOf[n.ID] = n.DC
	}
	for id, dc := range extra {
		dcOf[id] = dc
	}
	return func(from, to transport.NodeID) time.Duration {
		return OneWay(dcOf[from], dcOf[to])
	}
}
