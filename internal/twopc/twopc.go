// Package twopc implements the two-phase-commit baseline of the
// paper's evaluation: the transaction manager (client library)
// prepares every replica of every written record, and commits only if
// all of them vote yes — requiring two wide-area round trips and
// responses from all five data centers, and blocking on coordinator
// failure (participants hold locks until told the outcome; a lock
// timeout merely bounds the damage in this implementation).
//
// Prepared participants lock the record and validate the update's
// read version; conflicting or locked records vote no. Commutative
// updates validate value constraints while holding the lock, which is
// safe because 2PC contacts all replicas (no quorum divergence).
package twopc

import (
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// TxID names a 2PC transaction.
type TxID string

// MsgPrepare asks a participant to prepare one update.
type MsgPrepare struct {
	Tx     TxID
	Update record.Update
}

// MsgVote answers a prepare.
type MsgVote struct {
	Tx  TxID
	Key record.Key
	Yes bool
}

// MsgDecision distributes the outcome (second phase).
type MsgDecision struct {
	Tx     TxID
	Key    record.Key
	Commit bool
}

// MsgDecisionAck confirms a participant applied the outcome.
type MsgDecisionAck struct {
	Tx  TxID
	Key record.Key
}

// MsgRead / MsgReadReply serve local reads.
type MsgRead struct {
	ReqID uint64
	Key   record.Key
}

// MsgReadReply answers MsgRead.
type MsgReadReply struct {
	ReqID   uint64
	Key     record.Key
	Value   record.Encoded
	Version record.Version
	Exists  bool
}

// lockState is a participant's prepared transaction on one record.
type lockState struct {
	tx     TxID
	update record.Update
}

// Participant is a 2PC storage replica.
type Participant struct {
	id    transport.NodeID
	net   transport.Network
	store *kv.Store
	locks map[record.Key]*lockState
	cons  []record.Constraint

	// LockTimeout releases abandoned locks (coordinator death). Zero
	// disables — the textbook blocking behaviour.
	lockTimeout time.Duration
}

// NewParticipant builds and registers a participant replica.
func NewParticipant(id transport.NodeID, net transport.Network, store *kv.Store,
	cons []record.Constraint, lockTimeout time.Duration) *Participant {
	p := &Participant{
		id: id, net: net, store: store,
		locks:       make(map[record.Key]*lockState),
		cons:        cons,
		lockTimeout: lockTimeout,
	}
	net.Register(id, p.handle)
	return p
}

func (p *Participant) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case MsgPrepare:
		p.onPrepare(env.From, m)
	case MsgDecision:
		p.onDecision(env.From, m)
	case MsgRead:
		val, ver, ok := p.store.GetEncoded(m.Key)
		p.net.Send(p.id, env.From, MsgReadReply{
			ReqID: m.ReqID, Key: m.Key, Value: val, Version: ver,
			Exists: ok && !val.Tombstone(),
		})
	}
}

func (p *Participant) onPrepare(from transport.NodeID, m MsgPrepare) {
	key := m.Update.Key
	if ls, locked := p.locks[key]; locked {
		if ls.tx != m.Tx {
			p.net.Send(p.id, from, MsgVote{Tx: m.Tx, Key: key, Yes: false})
			return
		}
		// Duplicate prepare for the already-locked transaction.
		p.net.Send(p.id, from, MsgVote{Tx: m.Tx, Key: key, Yes: true})
		return
	}
	if !p.validate(m.Update) {
		p.net.Send(p.id, from, MsgVote{Tx: m.Tx, Key: key, Yes: false})
		return
	}
	p.locks[key] = &lockState{tx: m.Tx, update: m.Update}
	if p.lockTimeout > 0 {
		tx := m.Tx
		p.net.After(p.id, p.lockTimeout, func() {
			if ls, ok := p.locks[key]; ok && ls.tx == tx {
				delete(p.locks, key)
			}
		})
	}
	p.net.Send(p.id, from, MsgVote{Tx: m.Tx, Key: key, Yes: true})
}

func (p *Participant) validate(up record.Update) bool {
	_, ver, _ := p.store.GetEncoded(up.Key)
	switch up.Kind {
	case record.KindPhysical:
		if up.ReadVersion != ver {
			return false
		}
		for _, con := range p.cons {
			if x, ok := up.NewValue.Attr(con.Attr); ok && !con.Satisfied(x) {
				return false
			}
		}
		return true
	case record.KindCommutative:
		cur, _, _ := p.store.GetEncoded(up.Key)
		after := up.Apply(cur)
		for _, con := range p.cons {
			if x, ok := after.Attr(con.Attr); ok && !con.Satisfied(x) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func (p *Participant) onDecision(from transport.NodeID, m MsgDecision) {
	ls, ok := p.locks[m.Key]
	if ok && ls.tx == m.Tx {
		delete(p.locks, m.Key)
		if m.Commit {
			p.apply(ls.update)
		}
	}
	p.net.Send(p.id, from, MsgDecisionAck{Tx: m.Tx, Key: m.Key})
}

func (p *Participant) apply(up record.Update) {
	cur, ver, _ := p.store.GetEncoded(up.Key)
	switch up.Kind {
	case record.KindPhysical:
		_ = p.store.PutEncoded(up.Key, up.NewValue, ver+1)
	case record.KindCommutative:
		_ = p.store.PutEncoded(up.Key, up.Apply(cur), ver+1)
	}
}

// Coordinator is the 2PC transaction manager (client side).
type Coordinator struct {
	id  transport.NodeID
	dc  topology.DC
	net transport.Network
	cl  *topology.Cluster

	txSeq  uint64
	reqSeq uint64
	txs    map[TxID]*txCtx
	reads  map[uint64]func(record.Value, record.Version, bool)

	// PrepareTimeout aborts transactions whose participants never
	// answer (failed data center): 2PC cannot survive a silent
	// participant, which the paper calls out ("not resilient to
	// single node failures") — the timeout lets the benchmark
	// continue and counts the transaction aborted.
	prepareTimeout time.Duration
}

type txCtx struct {
	id      TxID
	keys    []record.Key       // the write-set's keys, in its order
	votes   map[record.Key]int // yes votes per key
	want    int                // replicas per key (all of them)
	voted   map[record.Key]map[transport.NodeID]bool
	acks    int
	ackWant int
	decided bool
	commit  bool
	done    func(bool)
}

// NewCoordinator builds a 2PC transaction manager.
func NewCoordinator(id transport.NodeID, dc topology.DC, net transport.Network,
	cl *topology.Cluster, prepareTimeout time.Duration) *Coordinator {
	c := &Coordinator{
		id: id, dc: dc, net: net, cl: cl,
		txs:            make(map[TxID]*txCtx),
		reads:          make(map[uint64]func(record.Value, record.Version, bool)),
		prepareTimeout: prepareTimeout,
	}
	net.Register(id, c.handle)
	return c
}

func (c *Coordinator) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case MsgVote:
		c.onVote(env.From, m)
	case MsgDecisionAck:
		c.onAck(m)
	case MsgReadReply:
		if cb, ok := c.reads[m.ReqID]; ok {
			delete(c.reads, m.ReqID)
			cb(m.Value.Decode(), m.Version, m.Exists)
		}
	}
}

// Read reads the local replica.
func (c *Coordinator) Read(key record.Key, cb func(record.Value, record.Version, bool)) {
	c.reqSeq++
	c.reads[c.reqSeq] = cb
	c.net.Send(c.id, c.cl.ReplicaIn(key, c.dc), MsgRead{ReqID: c.reqSeq, Key: key})
}

// Commit runs two-phase commit over all replicas of all written
// records: phase 1 prepares (requiring unanimous yes from every
// replica), phase 2 distributes the outcome and waits for the acks.
func (c *Coordinator) Commit(updates []record.Update, done func(bool)) {
	c.txSeq++
	tx := TxID(string(c.id) + "#2pc#" + itoa(c.txSeq))
	if len(updates) == 0 {
		done(true)
		return
	}
	t := &txCtx{
		id:    tx,
		votes: make(map[record.Key]int, len(updates)),
		voted: make(map[record.Key]map[transport.NodeID]bool, len(updates)),
		want:  c.cl.ReplicationFactor(),
		done:  done,
	}
	c.txs[tx] = t
	for _, up := range updates {
		if t.voted[up.Key] == nil {
			t.keys = append(t.keys, up.Key)
		}
		t.voted[up.Key] = make(map[transport.NodeID]bool, t.want)
		for _, rep := range c.cl.Replicas(up.Key) {
			c.net.Send(c.id, rep, MsgPrepare{Tx: tx, Update: up})
		}
	}
	if c.prepareTimeout > 0 {
		c.net.After(c.id, c.prepareTimeout, func() {
			cur, ok := c.txs[tx]
			if !ok || cur != t || t.decided {
				return
			}
			c.decide(t, false)
		})
	}
}

func (c *Coordinator) onVote(from transport.NodeID, m MsgVote) {
	t, ok := c.txs[m.Tx]
	if !ok || t.decided {
		return
	}
	seen, ok := t.voted[m.Key]
	if !ok || seen[from] {
		return
	}
	seen[from] = true
	if !m.Yes {
		c.decide(t, false)
		return
	}
	t.votes[m.Key]++
	if t.votes[m.Key] < t.want {
		return
	}
	// This key fully prepared; all keys fully prepared → commit.
	for _, k := range t.keys {
		if t.votes[k] < t.want {
			return
		}
	}
	c.decide(t, true)
}

// decide runs phase 2.
func (c *Coordinator) decide(t *txCtx, commit bool) {
	t.decided = true
	t.commit = commit
	t.ackWant = len(t.keys) * t.want
	// In write-set order, like the prepares: the send order is part of
	// the simulator's schedule, and a map's would differ run to run.
	for _, k := range t.keys {
		for _, rep := range c.cl.Replicas(k) {
			c.net.Send(c.id, rep, MsgDecision{Tx: t.id, Key: k, Commit: commit})
		}
	}
	// The caller's latency includes the second round: completion is
	// reported when all decision acks arrive (or, for aborts after a
	// vote-no, when the abort acks arrive — same message count).
	if t.ackWant == 0 {
		c.finish(t)
		return
	}
	if c.prepareTimeout > 0 {
		// A dead participant would otherwise hang phase 2 forever.
		id := t.id
		c.net.After(c.id, c.prepareTimeout, func() {
			if cur, ok := c.txs[id]; ok && cur == t {
				c.finish(t)
			}
		})
	}
}

func (c *Coordinator) onAck(m MsgDecisionAck) {
	t, ok := c.txs[m.Tx]
	if !ok || !t.decided {
		return
	}
	t.acks++
	if t.acks >= t.ackWant {
		c.finish(t)
	}
}

func (c *Coordinator) finish(t *txCtx) {
	delete(c.txs, t.id)
	t.done(t.commit)
}

// SupportsCommutative: constraints are validated under locks at all
// replicas, so deltas are safe.
func (c *Coordinator) SupportsCommutative() bool { return true }

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
