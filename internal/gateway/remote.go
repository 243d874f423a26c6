package gateway

import (
	"errors"

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

// MsgTxReply reports the transaction outcome. Refusal, when non-zero,
// is the code of the refusal the gateway answered with (see
// RefusalError); Committed is then false.
type MsgTxReply struct {
	ReqID     uint64
	Committed bool
	Refusal   uint8
}

// refusals is the one table of the errors a client over the RPC can
// tell apart: code i answers with refusals[i], and 0 (nil) is none.
// A code is bit i of MsgTxReply's flags byte, so the order is frozen
// per transport.WireVersion and a new refusal goes at the end. An
// error not listed — ring.ErrWrongShard, ErrOutcomeUnknown (no TCP
// gateway is frozen or killed, DESIGN.md §9) or a plain abort —
// crosses as committed=false with no refusal.
var refusals = [...]error{nil, ErrOverloaded, core.ErrMixedUpdateKinds, ErrClosed, core.ErrRepeatedKey}

// refusalCode is err's code in refusals: 0 for nil (errors.Is(err,
// nil) is err == nil) and for an error none of them matches.
func refusalCode(err error) uint8 {
	for code, refusal := range refusals {
		if errors.Is(err, refusal) {
			return uint8(code)
		}
	}
	return 0
}

// RefusalError is the error a refusal code stands for: nil for 0 and
// for a code the table does not have.
func RefusalError(code uint8) error {
	if int(code) >= len(refusals) {
		return nil
	}
	return refusals[code]
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
				ReqID: m.ReqID, Committed: committed && err == nil, Refusal: refusalCode(err),
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
