package mdcc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mdcc/internal/clock"
	"mdcc/internal/core"
	"mdcc/internal/gateway"
	"mdcc/internal/record"
	"mdcc/internal/server"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// RemoteTopology describes a real TCP deployment: the address of each
// data center's server process. It is shared by cmd/mdcc-server and
// cmd/mdcc-client, typically loaded from a JSON file:
//
//	{
//	  "nodesPerDC": 1,
//	  "mode": "mdcc",
//	  "addrs": {
//	    "us-west": "10.0.1.5:7420",
//	    "us-east": "10.0.2.5:7420",
//	    "eu-ie":   "10.0.3.5:7420",
//	    "ap-sg":   "10.0.4.5:7420",
//	    "ap-tk":   "10.0.5.5:7420"
//	  }
//	}
type RemoteTopology struct {
	NodesPerDC  int               `json:"nodesPerDC"`
	Mode        string            `json:"mode"` // "mdcc" | "fast" | "multi"
	Addrs       map[string]string `json:"addrs"`
	Constraints []struct {
		Attr string `json:"attr"`
		Min  *int64 `json:"min"`
		Max  *int64 `json:"max"`
	} `json:"constraints"`
}

// LoadRemoteTopology reads a topology JSON file. A key the schema does
// not have (a typo, or a setting a newer build removed) is an error
// naming the key, never silently ignored.
func LoadRemoteTopology(path string) (*RemoteTopology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mdcc: topology: %w", err)
	}
	var t RemoteTopology
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("mdcc: topology %s: %w", path, err)
	}
	if t.NodesPerDC < 1 {
		t.NodesPerDC = 1
	}
	return &t, nil
}

// ParseMode maps a topology mode string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "mdcc":
		return ModeMDCC, nil
	case "fast":
		return ModeFast, nil
	case "multi":
		return ModeMulti, nil
	default:
		return ModeMDCC, fmt.Errorf("mdcc: unknown mode %q", s)
	}
}

// ParseDC maps a data center short name ("us-west", …) to its DC.
func ParseDC(s string) (DC, error) {
	for _, dc := range topology.AllDCs() {
		if dc.String() == s {
			return dc, nil
		}
	}
	return 0, fmt.Errorf("mdcc: unknown data center %q (want one of us-west, us-east, eu-ie, ap-sg, ap-tk)", s)
}

// Mode returns the parsed protocol mode.
func (t *RemoteTopology) ModeValue() (Mode, error) { return ParseMode(t.Mode) }

// ConstraintList converts the JSON constraints.
func (t *RemoteTopology) ConstraintList() []Constraint {
	out := make([]Constraint, 0, len(t.Constraints))
	for _, c := range t.Constraints {
		out = append(out, Constraint{Attr: c.Attr, Min: c.Min, Max: c.Max})
	}
	return out
}

// routes builds the routing table to every server of the topology.
func (t *RemoteTopology) routes() (map[transport.NodeID]string, error) {
	addrs := make(map[DC]string, len(t.Addrs))
	for name, addr := range t.Addrs {
		dc, err := ParseDC(name)
		if err != nil {
			return nil, err
		}
		addrs[dc] = addr
	}
	return server.Routes(addrs, t.NodesPerDC), nil
}

// cluster builds the logical cluster layout for the topology.
func (t *RemoteTopology) cluster() *topology.Cluster {
	return topology.NewCluster(topology.Layout{NodesPerDC: t.NodesPerDC, Clients: 0, ClientDC: -1})
}

// RemoteSession is a Session plus the transport it owns.
type RemoteSession struct {
	*Session
	net *transport.TCP
}

// Close shuts the session's transport down.
func (r *RemoteSession) Close() { r.net.Close() }

// Dial connects a client session (homed in dc) to a TCP deployment.
// clientID must be unique among concurrently connected clients, and
// only among those: a process that exits and dials again under the id
// it had is safe, because every session names its own incarnation
// (DESIGN.md §8) — its transactions and requests are never taken for
// its predecessor's. listen is the local address for replies
// ("127.0.0.1:0" for any port).
func Dial(topo *RemoteTopology, dc DC, clientID, listen string) (*RemoteSession, error) {
	mode, err := topo.ModeValue()
	if err != nil {
		return nil, err
	}
	routes, err := topo.routes()
	if err != nil {
		return nil, err
	}
	net := transport.NewTCP(routes)
	addr, err := net.Listen(listen)
	if err != nil {
		return nil, err
	}
	id := transport.NodeID("client/" + clientID)
	// Tell every server where replies to this client go.
	for _, serverAddr := range topo.Addrs {
		net.Hello(serverAddr, id, addr)
	}
	cfg := server.Config(mode, topo.ConstraintList())
	coord := core.NewCoordinator(id, dc, net, topo.cluster(), cfg)
	return &RemoteSession{Session: newSession(coordBackend{id: id, net: net, coord: coord}, cfg), net: net}, nil
}

// DialGateway connects a thin client session to the gateway tier of a
// TCP deployment (a cmd/mdcc-server running with -gateway in dc).
// Unlike Dial, the client embeds no coordinator: transactions travel
// as single request/reply RPCs to the gateway, whose one coordinator
// batches and coalesces across all attached clients.
// clientID is Dial's: unique among concurrent sessions, reusable after.
func DialGateway(topo *RemoteTopology, dc DC, clientID, listen string) (*RemoteSession, error) {
	mode, err := topo.ModeValue()
	if err != nil {
		return nil, err
	}
	addr, ok := topo.Addrs[dc.String()]
	if !ok {
		return nil, fmt.Errorf("mdcc: no server address for %s in topology", dc)
	}
	net := transport.NewTCP(map[transport.NodeID]string{gateway.GatewayID(dc): addr})
	selfAddr, err := net.Listen(listen)
	if err != nil {
		return nil, err
	}
	id := transport.NodeID("client/" + clientID)
	net.Hello(addr, id, selfAddr)
	cfg := server.Config(mode, topo.ConstraintList())
	b := &gatewayRPCBackend{
		id:   id,
		gwID: gateway.GatewayID(dc),
		net:  net,
		// Request ids count up from the incarnation, so a reply the
		// gateway still owes a dead session that dialed under this
		// clientID can never answer one of this session's requests.
		seq: transport.Incarnation(net),
		// A commit unacknowledged past this deadline surfaces as a typed
		// OutcomeUnknownError instead of hanging to the session timeout:
		// long enough for the protocol to settle through recoveries,
		// short enough to beat newSession's blocking deadline.
		unknownAfter: 3*cfg.OptionTimeout + 3*cfg.RecoveryRetry,
	}
	net.Register(id, b.handle)
	return &RemoteSession{Session: newSession(b, cfg), net: net}, nil
}

// rpcStaleAfter is how long an unanswered RPC's callback is kept: far
// beyond any Session timeout, so pruning can never race a live call.
const rpcStaleAfter = 2 * time.Minute

// gatewayRPCBackend speaks the thin client ⇄ gateway RPC over TCP.
// Lost replies are abandoned to the Session's timeout; their stale
// callbacks are pruned as later requests come through (entries older
// than rpcStaleAfter, swept once the tables grow past a threshold).
type gatewayRPCBackend struct {
	id   transport.NodeID
	gwID transport.NodeID
	net  *transport.TCP
	// unknownAfter is the per-commit settle deadline: a submitted
	// write-set with no reply by then fails fast with a typed
	// *OutcomeUnknownError (the transaction may still commit — a
	// crashed gateway's proposed options are settled by the protocol).
	unknownAfter time.Duration

	mu    sync.Mutex
	seq   uint64
	txs   map[uint64]pendingTx
	reads map[uint64]pendingRead
}

type pendingTx struct {
	cb func(bool, error)
	at time.Time
	// deadline is the settle-deadline timer (nil until armed); whoever
	// claims the entry stops it.
	deadline clock.Timer
}

type pendingRead struct {
	cb func(record.Value, record.Version, bool)
	at time.Time
}

func (b *gatewayRPCBackend) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case gateway.MsgTxReply:
		b.mu.Lock()
		p, ok := b.txs[m.ReqID]
		delete(b.txs, m.ReqID)
		b.mu.Unlock()
		if ok {
			if p.deadline != nil {
				p.deadline.Stop()
			}
			switch {
			case m.Overloaded:
				p.cb(false, ErrOverloaded)
			case m.MixedKinds:
				p.cb(false, ErrMixedUpdateKinds)
			default:
				p.cb(m.Committed, nil)
			}
		}
	case gateway.MsgReadReply:
		b.mu.Lock()
		p, ok := b.reads[m.ReqID]
		delete(b.reads, m.ReqID)
		b.mu.Unlock()
		if ok {
			p.cb(m.Value, m.Version, m.Exists)
		}
	}
}

// pruneLocked drops callbacks whose replies are long lost. Swept only
// when a table has grown past a threshold, so the common case pays
// nothing.
func (b *gatewayRPCBackend) pruneLocked(now time.Time) {
	const sweepAt = 64
	if len(b.txs) >= sweepAt {
		for req, p := range b.txs {
			if now.Sub(p.at) > rpcStaleAfter {
				delete(b.txs, req)
			}
		}
	}
	if len(b.reads) >= sweepAt {
		for req, p := range b.reads {
			if now.Sub(p.at) > rpcStaleAfter {
				delete(b.reads, req)
			}
		}
	}
}

func (b *gatewayRPCBackend) read(key Key, floor Version, quorum bool, cb func(record.Value, record.Version, bool)) {
	now := time.Now()
	b.mu.Lock()
	b.pruneLocked(now)
	b.seq++
	req := b.seq
	if b.reads == nil {
		b.reads = make(map[uint64]pendingRead)
	}
	b.reads[req] = pendingRead{cb: cb, at: now}
	b.mu.Unlock()
	b.net.Send(b.id, b.gwID, gateway.MsgRead{ReqID: req, Key: key, Quorum: quorum, Floor: floor})
}

func (b *gatewayRPCBackend) Read(key Key, floor Version, cb func(record.Value, record.Version, bool)) {
	b.read(key, floor, false, cb)
}

func (b *gatewayRPCBackend) ReadQuorum(key Key, cb func(record.Value, record.Version, bool)) {
	b.read(key, 0, true, cb)
}

func (b *gatewayRPCBackend) Commit(updates []Update, done func(bool, error)) {
	now := time.Now()
	b.mu.Lock()
	b.pruneLocked(now)
	b.seq++
	req := b.seq
	if b.txs == nil {
		b.txs = make(map[uint64]pendingTx)
	}
	b.txs[req] = pendingTx{cb: done, at: now}
	b.mu.Unlock()
	b.net.Send(b.id, b.gwID, gateway.MsgTx{ReqID: req, Updates: updates})
	if b.unknownAfter > 0 {
		// Settle deadline: if the acknowledgement never comes back (the
		// gateway crashed with the transaction in hand, or the reply was
		// lost for good), fail fast with the typed unknown-outcome error
		// instead of letting the session block to its generic timeout.
		// Exactly-once with the reply path via the pending-table claim;
		// a reply that claims the entry first stops the timer, and one
		// that claimed it before the timer was stored leaves it to be
		// stopped here.
		deadline := b.net.After(b.id, b.unknownAfter, func() {
			b.mu.Lock()
			p, ok := b.txs[req]
			delete(b.txs, req)
			b.mu.Unlock()
			if ok {
				p.cb(false, &OutcomeUnknownError{TxID: fmt.Sprintf("%s/%s#%d", b.gwID, b.id, req)})
			}
		})
		b.mu.Lock()
		p, pending := b.txs[req]
		if pending {
			p.deadline = deadline
			b.txs[req] = p
		}
		b.mu.Unlock()
		if !pending {
			deadline.Stop()
		}
	}
}

// Metrics: a thin RPC client holds no protocol counters.
func (b *gatewayRPCBackend) Metrics() core.CoordMetrics { return core.CoordMetrics{} }
