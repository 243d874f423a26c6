package gateway

import (
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// Binary wire codecs for the client ⇄ gateway RPC surface (tag block
// 48..63; see internal/transport/codec.go). Same rules as
// internal/core's: field order frozen per transport.WireVersion,
// sorted-map and nil-for-empty conventions shared via internal/record's
// Value/Update encoders.

const (
	tagMsgTx uint8 = 48 + iota
	tagMsgTxReply
	tagMsgRead
	tagMsgReadReply
)

// Every RPC message must be able to cross TCP.
var (
	_ transport.WireMessage = MsgTx{}
	_ transport.WireMessage = MsgTxReply{}
	_ transport.WireMessage = MsgRead{}
	_ transport.WireMessage = MsgReadReply{}
)

// MsgTxReply flags byte.
const (
	txFlagCommitted  = 1 << 0
	txFlagOverloaded = 1 << 1
	txFlagMixedKinds = 1 << 2
)

// WireTag implements transport.WireMessage.
func (m MsgTx) WireTag() uint8 { return tagMsgTx }

// AppendWire implements transport.WireMessage.
func (m MsgTx) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendUvarint(b, uint64(len(m.Updates)))
	for _, u := range m.Updates {
		b = record.AppendUpdate(b, u)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgTxReply) WireTag() uint8 { return tagMsgTxReply }

// AppendWire implements transport.WireMessage.
func (m MsgTxReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	var flags uint8
	if m.Committed {
		flags |= txFlagCommitted
	}
	if m.Overloaded {
		flags |= txFlagOverloaded
	}
	if m.MixedKinds {
		flags |= txFlagMixedKinds
	}
	return append(b, flags)
}

// WireTag implements transport.WireMessage.
func (m MsgRead) WireTag() uint8 { return tagMsgRead }

// AppendWire implements transport.WireMessage.
func (m MsgRead) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendString(b, string(m.Key))
	b = transport.AppendBool(b, m.Quorum)
	return transport.AppendUvarint(b, uint64(m.Floor))
}

// WireTag implements transport.WireMessage.
func (m MsgReadReply) WireTag() uint8 { return tagMsgReadReply }

// AppendWire implements transport.WireMessage.
func (m MsgReadReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = record.AppendEncoded(b, m.Value)
	b = transport.AppendUvarint(b, uint64(m.Version))
	return transport.AppendBool(b, m.Exists)
}

func init() {
	transport.RegisterWire(tagMsgTx, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgTx
		m.ReqID = r.Uvarint()
		if n := r.Count("update"); n > 0 {
			m.Updates = make([]record.Update, 0, n)
			for i := 0; i < n; i++ {
				m.Updates = append(m.Updates, record.ReadUpdate(r))
			}
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgTxReply, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgTxReply
		m.ReqID = r.Uvarint()
		flags := r.Byte()
		m.Committed = flags&txFlagCommitted != 0
		m.Overloaded = flags&txFlagOverloaded != 0
		m.MixedKinds = flags&txFlagMixedKinds != 0
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgRead, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgRead
		m.ReqID = r.Uvarint()
		m.Key = record.Key(r.String())
		m.Quorum = r.Bool()
		m.Floor = record.Version(r.Uvarint())
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgReadReply, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgReadReply
		m.ReqID = r.Uvarint()
		m.Value = record.ReadEncoded(r)
		m.Version = record.Version(r.Uvarint())
		m.Exists = r.Bool()
		return m, r.Err()
	})
}
