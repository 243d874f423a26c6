package mdcc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

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
//
// An absent or 0 nodesPerDC means 1; a negative one, or a constraint
// whose min exceeds its max, is refused at load.
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
// naming the key, never silently ignored, and so is a value no
// deployment can mean: a negative nodesPerDC, or a constraint whose
// min exceeds its max (it would refuse every write to its attribute).
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
	if t.NodesPerDC < 0 {
		return nil, fmt.Errorf("mdcc: topology %s: nodesPerDC %d is negative", path, t.NodesPerDC)
	}
	if t.NodesPerDC == 0 {
		t.NodesPerDC = 1
	}
	for _, c := range t.Constraints {
		if c.Min != nil && c.Max != nil && *c.Min > *c.Max {
			return nil, fmt.Errorf("mdcc: topology %s: constraint on %q has min %d above max %d", path, c.Attr, *c.Min, *c.Max)
		}
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
	// coord is the session's private coordinator (Dial); nil for a
	// gateway session.
	coord  *core.Coordinator
	closed sync.Once
}

// Close shuts the session's transport down, but first sends what is
// still owed: the private coordinator's queue (flushed on the
// coordinator's own node), then every frame the transport holds, each
// wait bounded by server.CloseDrain. A one-shot client that closes right
// after its commit thus leaves no option for the replicas' pending sweep
// to settle. A second Close does nothing.
func (r *RemoteSession) Close() {
	r.closed.Do(func() {
		if r.coord != nil {
			server.Drain(r.net, r.coord.PostFlush())
		} else {
			server.Drain(r.net)
		}
		r.net.Close()
	})
}

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
	return &RemoteSession{Session: newSession(coordBackend{id: id, net: net, coord: coord}, cfg),
		net: net, coord: coord}, nil
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
// than rpcStaleAfter, swept once the table grows past a threshold).
type gatewayRPCBackend struct {
	id   transport.NodeID
	gwID transport.NodeID
	net  *transport.TCP
	// unknownAfter is the per-commit settle deadline, always positive:
	// a submitted write-set with no reply by then fails fast with a
	// typed *OutcomeUnknownError (the transaction may still commit — a
	// crashed gateway's proposed options are settled by the protocol).
	unknownAfter time.Duration

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]pendingRPC // by request id
}

// pendingRPC is one request awaiting its reply: a commit (commit set)
// or a read (read set).
type pendingRPC struct {
	commit func(bool, error)
	read   func(record.Value, record.Version, bool)
	at     time.Time
	// deadline is a commit's settle-deadline timer (see register).
	deadline transport.Timer
}

func (b *gatewayRPCBackend) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case gateway.MsgTxReply:
		if p, ok := b.claim(m.ReqID); ok && p.commit != nil {
			p.deadline.Stop()
			err := gateway.RefusalError(m.Refusal)
			p.commit(m.Committed && err == nil, err)
		}
	case gateway.MsgReadReply:
		if p, ok := b.claim(m.ReqID); ok && p.read != nil {
			p.read(m.Value.Decode(), m.Version, m.Exists)
		}
	}
}

// register files p under a fresh request id and returns the id, before
// the request is sent. A commit gets its settle deadline here: if the
// acknowledgement never comes back (the gateway crashed with the
// transaction in hand, or the reply was lost for good), it fails fast
// with the typed unknown-outcome error instead of blocking the session
// to its generic timeout; whichever of the reply and the deadline
// claims the entry answers it, and a reply stops the timer. Callbacks
// whose replies are long lost are dropped first, swept only once the
// table has grown past a threshold, so the common case pays nothing.
func (b *gatewayRPCBackend) register(p pendingRPC) uint64 {
	const sweepAt = 64
	p.at = time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) >= sweepAt {
		for req, old := range b.pending {
			if p.at.Sub(old.at) > rpcStaleAfter {
				delete(b.pending, req)
			}
		}
	}
	b.seq++
	req := b.seq
	if p.commit != nil {
		p.deadline = b.net.After(b.id, b.unknownAfter, func() {
			if p, ok := b.claim(req); ok {
				p.commit(false, &OutcomeUnknownError{TxID: fmt.Sprintf("%s/%s#%d", b.gwID, b.id, req)})
			}
		})
	}
	if b.pending == nil {
		b.pending = make(map[uint64]pendingRPC)
	}
	b.pending[req] = p
	return req
}

// claim removes and returns the request's entry: whoever claims it
// first — its reply, or a commit's settle deadline — answers it.
func (b *gatewayRPCBackend) claim(req uint64) (pendingRPC, bool) {
	b.mu.Lock()
	p, ok := b.pending[req]
	delete(b.pending, req)
	b.mu.Unlock()
	return p, ok
}

func (b *gatewayRPCBackend) read(key Key, floor Version, quorum bool, cb func(record.Value, record.Version, bool)) {
	req := b.register(pendingRPC{read: cb})
	b.net.Send(b.id, b.gwID, gateway.MsgRead{ReqID: req, Key: key, Quorum: quorum, Floor: floor})
}

func (b *gatewayRPCBackend) Read(key Key, floor Version, cb func(record.Value, record.Version, bool)) {
	b.read(key, floor, false, cb)
}

func (b *gatewayRPCBackend) ReadQuorum(key Key, cb func(record.Value, record.Version, bool)) {
	b.read(key, 0, true, cb)
}

func (b *gatewayRPCBackend) Commit(updates []Update, done func(bool, error)) {
	req := b.register(pendingRPC{commit: done})
	b.net.Send(b.id, b.gwID, gateway.MsgTx{ReqID: req, Updates: updates})
}

// Metrics: a thin RPC client holds no protocol counters.
func (b *gatewayRPCBackend) Metrics() core.CoordMetrics { return core.CoordMetrics{} }
