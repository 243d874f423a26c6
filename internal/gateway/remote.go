package gateway

import (
	"mdcc/internal/core"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// Thin client ⇄ gateway RPC, used when application servers talk to a
// remote gateway tier (cmd/mdcc-server -gateway) instead of embedding
// a coordinator: one commit or read request per message, matched to
// its reply by a client-scoped ReqID. Delivery is best-effort like
// everything on this transport; clients time requests out and the
// gateway's outcome for a lost reply is still settled by the normal
// protocol (the transaction itself is never lost once submitted).

// MsgTx submits a write-set for atomic commit.
type MsgTx struct {
	ReqID   uint64
	Updates []record.Update
}

// MsgTxReply reports the transaction outcome. Overloaded is set when
// admission control shed the transaction (it was never submitted);
// MixedKinds when the protocol rejected it under the kind-disjoint
// rule (core.ErrMixedUpdateKinds — a typed, permanent rejection:
// retrying the same update kind on the same key cannot succeed).
type MsgTxReply struct {
	ReqID      uint64
	Committed  bool
	Overloaded bool
	MixedKinds bool
}

// MsgRead asks the gateway for a read; Quorum selects an up-to-date
// quorum read instead of the nearest replica. Floor, when non-zero,
// is the client session's version floor (monotonic reads /
// read-your-writes): the gateway never serves its materialized copy
// below it, reading the local replica instead (see Gateway.ReadFloor).
type MsgRead struct {
	ReqID  uint64
	Key    record.Key
	Quorum bool
	Floor  record.Version
}

// MsgReadReply answers MsgRead; ReqID names the read it answers.
type MsgReadReply struct {
	ReqID   uint64
	Value   record.Encoded
	Version record.Version
	Exists  bool
}

// handle serves the RPC surface on the gateway's node.
func (g *Gateway) handle(env transport.Envelope) {
	switch m := env.Msg.(type) {
	case transport.Batch:
		for _, item := range m.Items {
			g.handle(item)
		}
	case MsgTx:
		from := env.From
		g.Commit(m.Updates, func(committed bool, err error) {
			g.net.Send(g.id, from, MsgTxReply{
				ReqID:      m.ReqID,
				Committed:  committed && err == nil,
				Overloaded: err == ErrOverloaded,
				MixedKinds: err == core.ErrMixedUpdateKinds,
			})
		})
	case MsgRead:
		from := env.From
		reply := func(val record.Encoded, ver record.Version, exists bool) {
			g.net.Send(g.id, from, MsgReadReply{
				ReqID: m.ReqID, Value: val, Version: ver, Exists: exists,
			})
		}
		if m.Quorum {
			g.readQuorum(m.Key, reply)
		} else {
			g.readFloor(m.Key, m.Floor, reply)
		}
	case core.MsgVisibilityFeed:
		g.onFeed(env.From, m)
	}
}
