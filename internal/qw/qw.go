// Package qw implements the quorum-writes baseline (QW-3 / QW-4 in
// the paper's evaluation): the standard eventually-consistent
// replication scheme — send every update to all replicas, acknowledge
// the client after W of N respond, read locally (R=1). It provides no
// isolation, no atomicity and no transactions; it exists as the
// latency/throughput floor that MDCC is compared against.
package qw

import (
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// Timestamp orders concurrent physical writes (last-writer-wins).
// Client clocks are virtual-time consistent in the simulator; ties
// break by client ID.
type Timestamp struct {
	Nanos  int64
	Client transport.NodeID
}

// after reports whether t is newer than o.
func (t Timestamp) after(o Timestamp) bool {
	if t.Nanos != o.Nanos {
		return t.Nanos > o.Nanos
	}
	return t.Client > o.Client
}

// MsgWrite replicates one update.
type MsgWrite struct {
	ReqID  uint64
	Update record.Update
	TS     Timestamp
}

// MsgWriteAck acknowledges one update.
type MsgWriteAck struct {
	ReqID uint64
	Key   record.Key
}

// MsgRead reads the local replica.
type MsgRead struct {
	ReqID uint64
	Key   record.Key
}

// MsgReadReply answers MsgRead.
type MsgReadReply struct {
	ReqID   uint64
	Value   record.Encoded
	Version record.Version
	Exists  bool
}

// tsEntry remembers the last-writer-wins timestamp per key.
type tsEntry struct{ ts Timestamp }

// StorageNode is a quorum-writes replica: it applies every write it
// receives (physical writes win by timestamp, deltas always apply)
// and acknowledges.
type StorageNode struct {
	id    transport.NodeID
	net   transport.Network
	store *kv.Store
	ts    map[record.Key]tsEntry
}

// NewStorageNode builds and registers a replica.
func NewStorageNode(id transport.NodeID, net transport.Network, store *kv.Store) *StorageNode {
	n := &StorageNode{id: id, net: net, store: store, ts: make(map[record.Key]tsEntry)}
	net.Register(id, n.handle)
	return n
}

func (n *StorageNode) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case MsgWrite:
		n.onWrite(env.From, m)
	case MsgRead:
		val, ver, ok := n.store.GetEncoded(m.Key)
		n.net.Send(n.id, env.From, MsgReadReply{
			ReqID: m.ReqID, Value: val, Version: ver,
			Exists: ok && !val.Tombstone(),
		})
	}
}

func (n *StorageNode) onWrite(from transport.NodeID, m MsgWrite) {
	key := m.Update.Key
	switch m.Update.Kind {
	case record.KindPhysical:
		cur, ver, _ := n.store.GetEncoded(key)
		if last, ok := n.ts[key]; !ok || m.TS.after(last.ts) {
			n.ts[key] = tsEntry{ts: m.TS}
			_ = n.store.PutEncoded(key, m.Update.NewValue, ver+1)
		}
		_ = cur
	case record.KindCommutative:
		cur, ver, _ := n.store.GetEncoded(key)
		_ = n.store.PutEncoded(key, m.Update.Apply(cur), ver+1)
	}
	n.net.Send(n.id, from, MsgWriteAck{ReqID: m.ReqID, Key: key})
}

// Client is the quorum-writes client: W-of-N write acknowledgement,
// local reads.
type Client struct {
	id  transport.NodeID
	dc  topology.DC
	net transport.Network
	cl  *topology.Cluster
	w   int // write quorum (3 or 4 of 5)

	reqSeq uint64
	writes map[uint64]*writeCtx
	reads  map[uint64]*readCtx
}

type writeCtx struct {
	pending map[record.Key]int // key → acks still needed
	done    func(bool)
}

type readCtx struct {
	cb func(record.Value, record.Version, bool)
}

// NewClient builds a client waiting for w acknowledgements per write.
func NewClient(id transport.NodeID, dc topology.DC, net transport.Network,
	cl *topology.Cluster, w int) *Client {
	c := &Client{
		id: id, dc: dc, net: net, cl: cl, w: w,
		writes: make(map[uint64]*writeCtx),
		reads:  make(map[uint64]*readCtx),
	}
	net.Register(id, c.handle)
	return c
}

func (c *Client) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case MsgWriteAck:
		c.onAck(m)
	case MsgReadReply:
		if rc, ok := c.reads[m.ReqID]; ok {
			delete(c.reads, m.ReqID)
			rc.cb(m.Value.Decode(), m.Version, m.Exists)
		}
	}
}

// Read reads the local replica (R=1: the fastest configuration, as
// in the paper).
func (c *Client) Read(key record.Key, cb func(record.Value, record.Version, bool)) {
	c.reqSeq++
	c.reads[c.reqSeq] = &readCtx{cb: cb}
	c.net.Send(c.id, c.cl.ReplicaIn(key, c.dc), MsgRead{ReqID: c.reqSeq, Key: key})
}

// Commit sends every update to all replicas and reports success once
// each update has W acknowledgements. There is no isolation and no
// atomicity — exactly the baseline's semantics.
func (c *Client) Commit(updates []record.Update, done func(bool)) {
	if len(updates) == 0 {
		done(true)
		return
	}
	c.reqSeq++
	req := c.reqSeq
	wc := &writeCtx{pending: make(map[record.Key]int, len(updates)), done: done}
	c.writes[req] = wc
	ts := Timestamp{Nanos: c.net.Now().UnixNano(), Client: c.id}
	for _, up := range updates {
		wc.pending[up.Key] = c.w
		for _, rep := range c.cl.Replicas(up.Key) {
			c.net.Send(c.id, rep, MsgWrite{ReqID: req, Update: up, TS: ts})
		}
	}
}

func (c *Client) onAck(m MsgWriteAck) {
	wc, ok := c.writes[m.ReqID]
	if !ok {
		return
	}
	left, ok := wc.pending[m.Key]
	if !ok {
		return
	}
	left--
	if left > 0 {
		wc.pending[m.Key] = left
		return
	}
	delete(wc.pending, m.Key)
	if len(wc.pending) == 0 {
		delete(c.writes, m.ReqID)
		wc.done(true)
	}
}

// SupportsCommutative: deltas apply natively (and unconditionally —
// no constraints, which is exactly the baseline's weakness).
func (c *Client) SupportsCommutative() bool { return true }
