// Package megastore implements Megastore*, the paper's own simulation
// of Megastore's replication protocol (§5.2): a single entity group
// whose commits are Multi-Paxos-agreed log positions, one transaction
// per position, serialized by a master (placed in US-West, in
// Megastore's favor). Per the paper it includes the Paxos-CP
// improvement of letting non-conflicting transactions move on to a
// subsequent log position instead of aborting; conflicting
// transactions (stale read versions) abort. The single serialized log
// is exactly the scalability bottleneck the evaluation demonstrates:
// under load, transactions queue at the master for whole log
// positions and response times explode.
package megastore

import (
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// TxID names a Megastore* transaction.
type TxID string

// MsgTxReq submits a transaction to the master.
type MsgTxReq struct {
	Tx      TxID
	Client  transport.NodeID
	Updates []record.Update
}

// MsgTxResp reports the outcome to the client.
type MsgTxResp struct {
	Tx        TxID
	Committed bool
}

// MsgAccept replicates one log entry (Multi-Paxos Phase 2; the master
// holds the mastership lease, so Phase 1 is skipped).
type MsgAccept struct {
	Pos     uint64
	Updates []record.Update
}

// MsgAccepted acknowledges a log entry.
type MsgAccepted struct {
	Pos uint64
}

// MsgApply tells replicas a position is chosen (asynchronous).
type MsgApply struct {
	Pos uint64
}

// MsgRead / MsgReadReply serve local reads (read-committed, the
// paper's relaxation for a fair comparison).
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

// logEntry is one replicated position.
type logEntry struct {
	updates []record.Update
}

// Replica is a Megastore* log replica (one per data center). It
// appends accepted entries and applies them in order. The US-West
// replica additionally hosts the master (same transport node, so all
// master state shares the replica's serialized handler context).
type Replica struct {
	id      transport.NodeID
	net     transport.Network
	store   *kv.Store
	log     map[uint64]logEntry
	chosen  map[uint64]bool
	applied uint64 // all positions <= applied are in the store
	master  *Master
}

// NewReplica builds and registers a log replica.
func NewReplica(id transport.NodeID, net transport.Network, store *kv.Store) *Replica {
	r := &Replica{
		id: id, net: net, store: store,
		log:    make(map[uint64]logEntry),
		chosen: make(map[uint64]bool),
	}
	net.Register(id, r.handle)
	return r
}

func (r *Replica) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case MsgAccept:
		r.log[m.Pos] = logEntry{updates: m.Updates}
		r.net.Send(r.id, env.From, MsgAccepted{Pos: m.Pos})
	case MsgApply:
		r.chosen[m.Pos] = true
		r.applyReady()
	case MsgRead:
		val, ver, ok := r.store.GetEncoded(m.Key)
		r.net.Send(r.id, env.From, MsgReadReply{
			ReqID: m.ReqID, Value: val, Version: ver,
			Exists: ok && !val.Tombstone(),
		})
	case MsgTxReq:
		if r.master != nil {
			r.master.queue = append(r.master.queue, m)
			r.master.pump()
		}
	case MsgAccepted:
		if r.master != nil {
			r.master.onAccepted(m)
		}
	}
}

// applyReady applies chosen positions strictly in order.
func (r *Replica) applyReady() {
	for {
		next := r.applied + 1
		if !r.chosen[next] {
			return
		}
		e, ok := r.log[next]
		if !ok {
			return // hole: wait for the accept to arrive
		}
		for _, up := range e.updates {
			cur, ver, _ := r.store.GetEncoded(up.Key)
			switch up.Kind {
			case record.KindPhysical:
				_ = r.store.PutEncoded(up.Key, up.NewValue, ver+1)
			case record.KindCommutative:
				_ = r.store.PutEncoded(up.Key, up.Apply(cur), ver+1)
			}
		}
		delete(r.log, next)
		delete(r.chosen, next)
		r.applied = next
	}
}

// Master serializes the entity group's commit log. It validates each
// transaction against the applied state (stale read versions abort),
// assigns it the next log position, replicates to a majority of the
// five replicas, applies, and answers the client. One position at a
// time — the queue is the point.
type Master struct {
	id      transport.NodeID
	net     transport.Network
	replica *Replica // co-located replica applies entries locally
	quorum  int

	queue   []MsgTxReq
	busy    bool
	nextPos uint64
	acks    map[uint64]int
	inPos   map[uint64]MsgTxReq
}

// ReplicaIDFor names the log replica in a DC.
func ReplicaIDFor(dc topology.DC) transport.NodeID {
	return transport.NodeID("megastore/" + dc.String())
}

// MasterID is the master's identity: it is co-located with the
// US-West replica per the paper's setup ("we play in favor of
// Megastore* placing all clients and masters in one data center"),
// sharing its transport node.
func MasterID() transport.NodeID { return ReplicaIDFor(topology.USWest) }

// NewMaster attaches the master role to its co-located US-West
// replica (same transport node and handler context).
func NewMaster(net transport.Network, cl *topology.Cluster, replica *Replica) *Master {
	m := &Master{
		id:      replica.id,
		net:     net,
		replica: replica,
		quorum:  cl.ReplicationFactor()/2 + 1,
		acks:    make(map[uint64]int),
		inPos:   make(map[uint64]MsgTxReq),
	}
	replica.master = m
	return m
}

// pump starts replicating the next queued transaction if the log is
// idle. Conflict validation happens at dequeue time against the
// applied state: a stale read version aborts immediately (Megastore
// would abort every concurrent transaction; Paxos-CP lets the
// non-conflicting ones proceed to the next position, which is what
// the queue models).
func (m *Master) pump() {
	for !m.busy && len(m.queue) > 0 {
		req := m.queue[0]
		m.queue = m.queue[1:]
		if !m.validate(req.Updates) {
			m.net.Send(m.id, req.Client, MsgTxResp{Tx: req.Tx, Committed: false})
			continue
		}
		m.busy = true
		m.nextPos++
		pos := m.nextPos
		m.inPos[pos] = req
		m.acks[pos] = 0
		for _, dc := range topology.AllDCs() {
			m.net.Send(m.id, ReplicaIDFor(dc), MsgAccept{Pos: pos, Updates: req.Updates})
		}
	}
}

func (m *Master) validate(updates []record.Update) bool {
	for _, up := range updates {
		_, ver, _ := m.replica.store.GetEncoded(up.Key)
		if up.Kind == record.KindPhysical && up.ReadVersion != ver {
			return false
		}
	}
	return true
}

func (m *Master) onAccepted(msg MsgAccepted) {
	req, ok := m.inPos[msg.Pos]
	if !ok {
		return
	}
	m.acks[msg.Pos]++
	if m.acks[msg.Pos] < m.quorum {
		return
	}
	delete(m.inPos, msg.Pos)
	delete(m.acks, msg.Pos)
	// Chosen: apply locally right away (the next queued transaction
	// must validate against this position's effects) and tell the
	// remote replicas asynchronously.
	m.replica.chosen[msg.Pos] = true
	m.replica.applyReady()
	for _, dc := range topology.AllDCs() {
		if dc != topology.USWest {
			m.net.Send(m.id, ReplicaIDFor(dc), MsgApply{Pos: msg.Pos})
		}
	}
	m.net.Send(m.id, req.Client, MsgTxResp{Tx: req.Tx, Committed: true})
	m.busy = false
	m.pump()
}

// Client is the Megastore* client library: reads go to the local
// replica, commits to the (single) master.
type Client struct {
	id  transport.NodeID
	dc  topology.DC
	net transport.Network

	txSeq  uint64
	reqSeq uint64
	txs    map[TxID]func(bool)
	reads  map[uint64]func(record.Value, record.Version, bool)
}

// NewClient builds a Megastore* client.
func NewClient(id transport.NodeID, dc topology.DC, net transport.Network) *Client {
	c := &Client{
		id: id, dc: dc, net: net,
		txs:   make(map[TxID]func(bool)),
		reads: make(map[uint64]func(record.Value, record.Version, bool)),
	}
	net.Register(id, c.handle)
	return c
}

func (c *Client) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case MsgTxResp:
		if done, ok := c.txs[m.Tx]; ok {
			delete(c.txs, m.Tx)
			done(m.Committed)
		}
	case MsgReadReply:
		if cb, ok := c.reads[m.ReqID]; ok {
			delete(c.reads, m.ReqID)
			cb(m.Value.Decode(), m.Version, m.Exists)
		}
	}
}

// Read reads the local log replica.
func (c *Client) Read(key record.Key, cb func(record.Value, record.Version, bool)) {
	c.reqSeq++
	c.reads[c.reqSeq] = cb
	c.net.Send(c.id, ReplicaIDFor(c.dc), MsgRead{ReqID: c.reqSeq, Key: key})
}

// Commit submits the write-set to the master.
func (c *Client) Commit(updates []record.Update, done func(bool)) {
	c.txSeq++
	tx := TxID(string(c.id) + "#ms#" + itoa(c.txSeq))
	if len(updates) == 0 {
		done(true)
		return
	}
	c.txs[tx] = done
	c.net.Send(c.id, MasterID(), MsgTxReq{Tx: tx, Client: c.id, Updates: updates})
}

// SupportsCommutative: the master serializes everything, so deltas
// apply trivially.
func (c *Client) SupportsCommutative() bool { return true }

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
