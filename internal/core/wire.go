package core

import (
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// Hand-rolled binary wire codecs for every core protocol message (see
// internal/transport/codec.go for the framing and the versioning
// rule). The sub-encoders here (option, lineage summary, ballot,
// escrow) and internal/record's value/update encoders are shared with
// the disk records in disk.go: one append and one read function per
// type, whoever the consumer.
//
// Decode-side allocation discipline: every bounded-cardinality string
// on the wire — record keys, node ids, ballot leaders, attribute and
// lane names — decodes through transport's intern table, so in steady
// state only genuinely new data allocates. Transaction ids are the
// deliberate exception (unbounded cardinality, would churn the table).
// The gate is TestWireDecodeSteadyStateAllocs.
//
// Field order is frozen per transport.WireVersion. Conditional fields
// are guarded by the same booleans the consumers check (EscrowSnap
// encodes its contents only when Valid; Phase2a's base only under
// HasBase), so a zero guard with stray populated fields — which no
// producer emits — would not round-trip.

// Core's wire tag block (16..47; see codec.go for the space).
const (
	tagMsgRead uint8 = 16 + iota
	tagMsgReadReply
	_ // 18: MsgProposeFast until wire version 4
	tagMsgProposeBatch
	_ // 20: a lone MsgVote until wire version 4
	tagMsgVoteBatch
	tagMsgLearned
	tagMsgVisibility
	tagMsgVisibilityBatch
	tagMsgPhase2a
	tagMsgPhase2b
	tagMsgVisibilitySub
	tagMsgVisibilityFeed
	tagMsgProposeLeader
	tagMsgStartRecovery
	tagMsgPhase1a
	tagMsgPhase1b
	tagMsgEnableFast
	tagMsgRecoverOpt
	tagMsgOptDecided
	tagMsgSyncReq
	tagMsgSyncReply
)

// Every message this package sends must be able to cross TCP.
var (
	_ transport.WireMessage = MsgRead{}
	_ transport.WireMessage = MsgReadReply{}
	_ transport.WireMessage = MsgProposeBatch{}
	_ transport.WireMessage = MsgVoteBatch{}
	_ transport.WireMessage = MsgLearned{}
	_ transport.WireMessage = MsgVisibility{}
	_ transport.WireMessage = MsgVisibilityBatch{}
	_ transport.WireMessage = MsgPhase2a{}
	_ transport.WireMessage = MsgPhase2b{}
	_ transport.WireMessage = MsgVisibilitySub{}
	_ transport.WireMessage = MsgVisibilityFeed{}
	_ transport.WireMessage = MsgProposeLeader{}
	_ transport.WireMessage = MsgStartRecovery{}
	_ transport.WireMessage = MsgPhase1a{}
	_ transport.WireMessage = MsgPhase1b{}
	_ transport.WireMessage = MsgEnableFast{}
	_ transport.WireMessage = MsgRecoverOpt{}
	_ transport.WireMessage = MsgOptDecided{}
	_ transport.WireMessage = MsgSyncReq{}
	_ transport.WireMessage = MsgSyncReply{}
)

// ---- shared sub-encoders ----

func appendOption(b []byte, o Option) []byte { return appendOptionSets(b, o, true) }

// appendOptionSets encodes o, its WriteSet and WriteSeqs only if sets:
// a propose batch leaves them out of an option that shares them with
// the option before it.
func appendOptionSets(b []byte, o Option, sets bool) []byte {
	b = transport.AppendString(b, string(o.Tx))
	b = transport.AppendString(b, string(o.Coord))
	b = record.AppendUpdate(b, o.Update)
	if sets {
		b = transport.AppendUvarint(b, uint64(len(o.WriteSet)))
		for _, k := range o.WriteSet {
			b = transport.AppendString(b, string(k))
		}
	}
	b = transport.AppendUvarint(b, o.KeySeq)
	if sets {
		b = transport.AppendUvarint(b, uint64(len(o.WriteSeqs)))
		for _, s := range o.WriteSeqs {
			b = transport.AppendUvarint(b, s)
		}
	}
	return b
}

func readOption(r *transport.WireReader) Option { return readOptionSets(r, nil) }

// readOptionSets decodes what appendOptionSets encoded: with a nil
// shared the option's own WriteSet and WriteSeqs follow, otherwise it
// takes shared's slices.
func readOptionSets(r *transport.WireReader, shared *Option) Option {
	var o Option
	o.Tx = TxID(r.String())
	o.Coord = transport.NodeID(r.InternString())
	o.Update = record.ReadUpdate(r)
	if shared != nil {
		o.WriteSet = shared.WriteSet
	} else if n := r.Count("write-set"); n > 0 {
		o.WriteSet = make([]record.Key, 0, n)
		for i := 0; i < n; i++ {
			o.WriteSet = append(o.WriteSet, record.Key(r.InternString()))
		}
	}
	o.KeySeq = r.Uvarint()
	if shared != nil {
		o.WriteSeqs = shared.WriteSeqs
	} else if n := r.Count("write-seq"); n > 0 {
		o.WriteSeqs = make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			o.WriteSeqs = append(o.WriteSeqs, r.Uvarint())
		}
	}
	return o
}

// sharesSets reports whether o carries prev's WriteSet and WriteSeqs:
// the same slices, not equal contents. A coordinator hands every option
// of a transaction the same two slices, so identity is the whole test.
func sharesSets(o, prev Option) bool {
	return sameSlice(o.WriteSet, prev.WriteSet) && sameSlice(o.WriteSeqs, prev.WriteSeqs)
}

// sameSlice reports whether a and b have one length and one backing
// array.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

func appendBallot(b []byte, bal paxos.Ballot) []byte {
	b = transport.AppendUvarint(b, bal.N)
	b = transport.AppendBool(b, bal.Fast)
	return transport.AppendString(b, bal.Leader)
}

func readBallot(r *transport.WireReader) paxos.Ballot {
	var bal paxos.Ballot
	bal.N = r.Uvarint()
	bal.Fast = r.Bool()
	bal.Leader = r.InternString()
	return bal
}

func appendEscrow(b []byte, e EscrowSnap) []byte {
	b = transport.AppendBool(b, e.Valid)
	if !e.Valid {
		return b
	}
	b = transport.AppendUvarint(b, uint64(e.Version))
	b = transport.AppendUvarint(b, uint64(e.Contenders))
	b = transport.AppendUvarint(b, uint64(len(e.Attrs)))
	for _, a := range e.Attrs {
		b = transport.AppendString(b, a.Attr)
		b = transport.AppendVarint(b, a.Base)
		b = transport.AppendVarint(b, a.PendDown)
		b = transport.AppendVarint(b, a.PendUp)
	}
	return b
}

func readEscrow(r *transport.WireReader) EscrowSnap {
	var e EscrowSnap
	e.Valid = r.Bool()
	if !e.Valid {
		return e
	}
	e.Version = record.Version(r.Uvarint())
	e.Contenders = int(r.Uvarint())
	if n := r.Count("escrow attribute"); n > 0 {
		e.Attrs = make([]AttrEscrow, 0, n)
		for i := 0; i < n; i++ {
			e.Attrs = append(e.Attrs, AttrEscrow{
				Attr: r.InternString(), Base: r.Varint(),
				PendDown: r.Varint(), PendUp: r.Varint(),
			})
		}
	}
	return e
}

func appendRanges(b []byte, rs []SeqRange) []byte {
	b = transport.AppendUvarint(b, uint64(len(rs)))
	for _, sr := range rs {
		b = transport.AppendUvarint(b, sr.Lo)
		b = transport.AppendUvarint(b, sr.Hi)
	}
	return b
}

// readRanges reads a range list onto rs; a nil rs reads into a fresh
// slice of exactly the list's length (what a decoded message keeps),
// a stack buffer's reads allocate nothing while the list fits it.
func readRanges(r *transport.WireReader, rs []SeqRange) []SeqRange {
	n := r.Count("range")
	if n == 0 {
		return rs
	}
	if rs == nil {
		rs = make([]SeqRange, 0, n)
	}
	for i := 0; i < n; i++ {
		rs = append(rs, SeqRange{Lo: r.Uvarint(), Hi: r.Uvarint()})
	}
	return rs
}

func appendLineage(b []byte, s LineageSummary) []byte {
	b = transport.AppendUvarint(b, uint64(len(s.Lanes)))
	for _, l := range s.Lanes {
		b = transport.AppendString(b, l.Lane)
		b = appendRanges(b, l.Done)
		b = appendRanges(b, l.Rejected)
	}
	b = transport.AppendBool(b, s.Deltas)
	return transport.AppendBool(b, s.Physical)
}

// readLineage decodes what appendLineage encoded or, given the lane
// table a record's packed summary names its lanes in (packedLineage),
// unpacks that summary.
func readLineage(r *transport.WireReader, t *laneTable) LineageSummary {
	var s LineageSummary
	if n := r.Count("lane"); n > 0 {
		s.Lanes = make([]LaneLineage, 0, n)
		for i := 0; i < n; i++ {
			var lane string
			if t != nil {
				lane = t.names[r.Uvarint()]
			} else {
				lane = r.InternString()
			}
			s.Lanes = append(s.Lanes, LaneLineage{
				Lane: lane, Done: readRanges(r, nil), Rejected: readRanges(r, nil),
			})
		}
	}
	s.Deltas = r.Bool()
	s.Physical = r.Bool()
	return s
}

// Vote flags byte.
const (
	voteFlagForwarded  = 1 << 0
	voteFlagWrongGroup = 1 << 1
)

func appendVote(b []byte, v MsgVote) []byte {
	b = transport.AppendString(b, string(v.OptID.Tx))
	b = transport.AppendString(b, string(v.OptID.Key))
	b = appendBallot(b, v.Ballot)
	b = append(b, uint8(v.Decision), uint8(v.Reason))
	var flags uint8
	if v.Forwarded {
		flags |= voteFlagForwarded
	}
	if v.WrongGroup {
		flags |= voteFlagWrongGroup
	}
	b = append(b, flags)
	b = transport.AppendString(b, string(v.Leader))
	return appendEscrow(b, v.Escrow)
}

func readVote(r *transport.WireReader) MsgVote {
	var v MsgVote
	v.OptID.Tx = TxID(r.String())
	v.OptID.Key = record.Key(r.InternString())
	v.Ballot = readBallot(r)
	v.Decision = Decision(r.Byte())
	v.Reason = RejectReason(r.Byte())
	flags := r.Byte()
	v.Forwarded = flags&voteFlagForwarded != 0
	v.WrongGroup = flags&voteFlagWrongGroup != 0
	v.Leader = transport.NodeID(r.InternString())
	v.Escrow = readEscrow(r)
	return v
}

func appendVoted(b []byte, v VotedOption) []byte {
	b = appendOption(b, v.Opt)
	return append(b, uint8(v.Decision), uint8(v.Reason))
}

func readVoted(r *transport.WireReader) VotedOption {
	var v VotedOption
	v.Opt = readOption(r)
	v.Decision = Decision(r.Byte())
	v.Reason = RejectReason(r.Byte())
	return v
}

// appendGuardedOption encodes an (Opt, HasOpt) pair: the option's
// bytes follow only when the guard is set.
func appendGuardedOption(b []byte, o Option, has bool) []byte {
	b = transport.AppendBool(b, has)
	if has {
		b = appendOption(b, o)
	}
	return b
}

func readGuardedOption(r *transport.WireReader) (o Option, has bool) {
	if has = r.Bool(); has {
		o = readOption(r)
	}
	return o, has
}

func appendFeedItem(b []byte, it FeedItem) []byte {
	b = transport.AppendString(b, string(it.Key))
	b = record.AppendEncoded(b, it.Value)
	b = transport.AppendUvarint(b, uint64(it.Version))
	b = transport.AppendBool(b, it.Exists)
	return appendEscrow(b, it.Escrow)
}

func readFeedItem(r *transport.WireReader) FeedItem {
	var it FeedItem
	it.Key = record.Key(r.InternString())
	it.Value = record.ReadEncoded(r)
	it.Version = record.Version(r.Uvarint())
	it.Exists = r.Bool()
	it.Escrow = readEscrow(r)
	return it
}

// ---- per-message WireMessage implementations ----

// WireTag implements transport.WireMessage.
func (m MsgRead) WireTag() uint8 { return tagMsgRead }

// AppendWire implements transport.WireMessage.
func (m MsgRead) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	return transport.AppendString(b, string(m.Key))
}

// WireTag implements transport.WireMessage.
func (m MsgReadReply) WireTag() uint8 { return tagMsgReadReply }

// AppendWire implements transport.WireMessage.
func (m MsgReadReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendString(b, string(m.Key))
	b = record.AppendEncoded(b, m.Value)
	b = transport.AppendUvarint(b, uint64(m.Version))
	b = transport.AppendBool(b, m.Exists)
	return appendEscrow(b, m.Escrow)
}

// WireTag implements transport.WireMessage.
func (m MsgProposeBatch) WireTag() uint8 { return tagMsgProposeBatch }

// AppendWire implements transport.WireMessage. The first option is
// written whole; every later one opens with a bool that says whether it
// shares the previous option's WriteSet and WriteSeqs (sharesSets),
// which are then not written again. A transaction's write set thus
// crosses the wire once per batch, and a one-option batch is encoded
// as in version 2.
func (m MsgProposeBatch) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(m.Opts)))
	for i, o := range m.Opts {
		if i == 0 {
			b = appendOption(b, o)
			continue
		}
		shared := sharesSets(o, m.Opts[i-1])
		b = transport.AppendBool(b, shared)
		b = appendOptionSets(b, o, !shared)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgVoteBatch) WireTag() uint8 { return tagMsgVoteBatch }

// AppendWire implements transport.WireMessage.
func (m MsgVoteBatch) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(m.Votes)))
	for _, v := range m.Votes {
		b = appendVote(b, v)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgLearned) WireTag() uint8 { return tagMsgLearned }

// AppendWire implements transport.WireMessage.
func (m MsgLearned) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.OptID.Tx))
	b = transport.AppendString(b, string(m.OptID.Key))
	b = append(b, uint8(m.Decision), uint8(m.Reason))
	return appendEscrow(b, m.Escrow)
}

// WireTag implements transport.WireMessage.
func (m MsgVisibility) WireTag() uint8 { return tagMsgVisibility }

// AppendWire implements transport.WireMessage.
func (m MsgVisibility) AppendWire(b []byte) []byte {
	b = appendOption(b, m.Opt)
	return transport.AppendBool(b, m.Commit)
}

// WireTag implements transport.WireMessage.
func (m MsgVisibilityBatch) WireTag() uint8 { return tagMsgVisibilityBatch }

// AppendWire implements transport.WireMessage.
func (m MsgVisibilityBatch) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, uint64(len(m.Items)))
	for _, it := range m.Items {
		b = appendOption(b, it.Opt)
		b = transport.AppendBool(b, it.Commit)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgPhase2a) WireTag() uint8 { return tagMsgPhase2a }

// AppendWire implements transport.WireMessage.
func (m MsgPhase2a) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.Key))
	b = appendBallot(b, m.Ballot)
	b = transport.AppendUvarint(b, m.Seq)
	b = transport.AppendUvarint(b, uint64(len(m.CStruct)))
	for _, v := range m.CStruct {
		b = appendVoted(b, v)
	}
	b = transport.AppendBool(b, m.HasBase)
	if m.HasBase {
		b = transport.AppendUvarint(b, uint64(m.BaseVersion))
		b = record.AppendEncoded(b, m.BaseValue)
		b = appendLineage(b, m.BaseLineage)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgPhase2b) WireTag() uint8 { return tagMsgPhase2b }

// AppendWire implements transport.WireMessage.
func (m MsgPhase2b) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.Key))
	b = appendBallot(b, m.Ballot)
	b = transport.AppendUvarint(b, m.Seq)
	b = transport.AppendBool(b, m.OK)
	if !m.OK {
		b = appendBallot(b, m.Promised)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgVisibilitySub) WireTag() uint8 { return tagMsgVisibilitySub }

// AppendWire implements transport.WireMessage.
func (m MsgVisibilitySub) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Epoch)
	b = transport.AppendUvarint(b, uint64(len(m.CatchUp)))
	for _, k := range m.CatchUp {
		b = transport.AppendString(b, string(k))
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgVisibilityFeed) WireTag() uint8 { return tagMsgVisibilityFeed }

// AppendWire implements transport.WireMessage.
func (m MsgVisibilityFeed) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.Epoch)
	b = transport.AppendUvarint(b, m.Seq)
	b = transport.AppendUvarint(b, m.Boot)
	b = transport.AppendUvarint(b, uint64(len(m.Items)))
	for _, it := range m.Items {
		b = appendFeedItem(b, it)
	}
	return b
}

// WireTag implements transport.WireMessage.
func (m MsgProposeLeader) WireTag() uint8 { return tagMsgProposeLeader }

// AppendWire implements transport.WireMessage.
func (m MsgProposeLeader) AppendWire(b []byte) []byte { return appendOption(b, m.Opt) }

// WireTag implements transport.WireMessage.
func (m MsgStartRecovery) WireTag() uint8 { return tagMsgStartRecovery }

// AppendWire implements transport.WireMessage.
func (m MsgStartRecovery) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.Key))
	return appendGuardedOption(b, m.Opt, m.HasOpt)
}

// WireTag implements transport.WireMessage.
func (m MsgPhase1a) WireTag() uint8 { return tagMsgPhase1a }

// AppendWire implements transport.WireMessage.
func (m MsgPhase1a) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.Key))
	return appendBallot(b, m.Ballot)
}

// WireTag implements transport.WireMessage.
func (m MsgPhase1b) WireTag() uint8 { return tagMsgPhase1b }

// AppendWire implements transport.WireMessage.
func (m MsgPhase1b) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.Key))
	b = appendBallot(b, m.Ballot)
	b = appendBallot(b, m.Bal)
	b = transport.AppendUvarint(b, uint64(len(m.Votes)))
	for _, v := range m.Votes {
		b = appendVoted(b, v)
	}
	b = transport.AppendUvarint(b, uint64(m.Version))
	b = record.AppendEncoded(b, m.Value)
	return appendLineage(b, m.Lineage)
}

// WireTag implements transport.WireMessage.
func (m MsgEnableFast) WireTag() uint8 { return tagMsgEnableFast }

// AppendWire implements transport.WireMessage.
func (m MsgEnableFast) AppendWire(b []byte) []byte {
	b = transport.AppendString(b, string(m.Key))
	return appendBallot(b, m.Ballot)
}

// WireTag implements transport.WireMessage.
func (m MsgRecoverOpt) WireTag() uint8 { return tagMsgRecoverOpt }

// AppendWire implements transport.WireMessage.
func (m MsgRecoverOpt) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendString(b, string(m.Tx))
	b = transport.AppendString(b, string(m.Key))
	b = transport.AppendUvarint(b, m.KeySeq)
	return appendGuardedOption(b, m.Opt, m.HasOpt)
}

// WireTag implements transport.WireMessage.
func (m MsgOptDecided) WireTag() uint8 { return tagMsgOptDecided }

// AppendWire implements transport.WireMessage.
func (m MsgOptDecided) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendString(b, string(m.Tx))
	b = transport.AppendString(b, string(m.Key))
	b = append(b, uint8(m.Decision))
	return appendGuardedOption(b, m.Opt, m.HasOpt)
}

// WireTag implements transport.WireMessage.
func (m MsgSyncReq) WireTag() uint8 { return tagMsgSyncReq }

// AppendWire implements transport.WireMessage.
func (m MsgSyncReq) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendString(b, string(m.From))
	return transport.AppendVarint(b, int64(m.Limit))
}

// WireTag implements transport.WireMessage.
func (m MsgSyncReply) WireTag() uint8 { return tagMsgSyncReply }

// AppendWire implements transport.WireMessage.
func (m MsgSyncReply) AppendWire(b []byte) []byte {
	b = transport.AppendUvarint(b, m.ReqID)
	b = transport.AppendUvarint(b, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		b = transport.AppendString(b, string(e.Key))
		b = record.AppendEncoded(b, e.Value)
		b = transport.AppendUvarint(b, uint64(e.Version))
		b = appendLineage(b, e.Lineage)
	}
	return transport.AppendString(b, string(m.Next))
}

func init() {
	transport.RegisterWire(tagMsgRead, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgRead
		m.ReqID = r.Uvarint()
		m.Key = record.Key(r.InternString())
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgReadReply, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgReadReply
		m.ReqID = r.Uvarint()
		m.Key = record.Key(r.InternString())
		m.Value = record.ReadEncoded(r)
		m.Version = record.Version(r.Uvarint())
		m.Exists = r.Bool()
		m.Escrow = readEscrow(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgProposeBatch, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgProposeBatch
		if n := r.Count("propose"); n > 0 {
			m.Opts = make([]Option, 0, n)
			m.Opts = append(m.Opts, readOption(r))
			for i := 1; i < n; i++ {
				var shared *Option
				if r.Bool() {
					shared = &m.Opts[i-1]
				}
				m.Opts = append(m.Opts, readOptionSets(r, shared))
			}
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgVoteBatch, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgVoteBatch
		if n := r.Count("vote"); n > 0 {
			m.Votes = make([]MsgVote, 0, n)
			for i := 0; i < n; i++ {
				m.Votes = append(m.Votes, readVote(r))
			}
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgLearned, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgLearned
		m.OptID.Tx = TxID(r.String())
		m.OptID.Key = record.Key(r.InternString())
		m.Decision = Decision(r.Byte())
		m.Reason = RejectReason(r.Byte())
		m.Escrow = readEscrow(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgVisibility, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgVisibility
		m.Opt = readOption(r)
		m.Commit = r.Bool()
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgVisibilityBatch, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgVisibilityBatch
		if n := r.Count("visibility"); n > 0 {
			m.Items = make([]MsgVisibility, 0, n)
			for i := 0; i < n; i++ {
				var it MsgVisibility
				it.Opt = readOption(r)
				it.Commit = r.Bool()
				m.Items = append(m.Items, it)
			}
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgPhase2a, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgPhase2a
		m.Key = record.Key(r.InternString())
		m.Ballot = readBallot(r)
		m.Seq = r.Uvarint()
		if n := r.Count("cstruct"); n > 0 {
			m.CStruct = make([]VotedOption, 0, n)
			for i := 0; i < n; i++ {
				m.CStruct = append(m.CStruct, readVoted(r))
			}
		}
		m.HasBase = r.Bool()
		if m.HasBase {
			m.BaseVersion = record.Version(r.Uvarint())
			m.BaseValue = record.ReadEncoded(r)
			m.BaseLineage = readLineage(r, nil)
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgPhase2b, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgPhase2b
		m.Key = record.Key(r.InternString())
		m.Ballot = readBallot(r)
		m.Seq = r.Uvarint()
		m.OK = r.Bool()
		if !m.OK {
			m.Promised = readBallot(r)
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgVisibilitySub, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgVisibilitySub
		m.Epoch = r.Uvarint()
		if n := r.Count("catchup"); n > 0 {
			m.CatchUp = make([]record.Key, 0, n)
			for i := 0; i < n; i++ {
				m.CatchUp = append(m.CatchUp, record.Key(r.InternString()))
			}
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgVisibilityFeed, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgVisibilityFeed
		m.Epoch = r.Uvarint()
		m.Seq = r.Uvarint()
		m.Boot = r.Uvarint()
		if n := r.Count("feed"); n > 0 {
			m.Items = make([]FeedItem, 0, n)
			for i := 0; i < n; i++ {
				m.Items = append(m.Items, readFeedItem(r))
			}
		}
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgProposeLeader, func(r *transport.WireReader) (transport.Message, error) {
		return MsgProposeLeader{Opt: readOption(r)}, r.Err()
	})
	transport.RegisterWire(tagMsgStartRecovery, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgStartRecovery
		m.Key = record.Key(r.InternString())
		m.Opt, m.HasOpt = readGuardedOption(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgPhase1a, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgPhase1a
		m.Key = record.Key(r.InternString())
		m.Ballot = readBallot(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgPhase1b, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgPhase1b
		m.Key = record.Key(r.InternString())
		m.Ballot = readBallot(r)
		m.Bal = readBallot(r)
		if n := r.Count("vote"); n > 0 {
			m.Votes = make([]VotedOption, 0, n)
			for i := 0; i < n; i++ {
				m.Votes = append(m.Votes, readVoted(r))
			}
		}
		m.Version = record.Version(r.Uvarint())
		m.Value = record.ReadEncoded(r)
		m.Lineage = readLineage(r, nil)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgEnableFast, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgEnableFast
		m.Key = record.Key(r.InternString())
		m.Ballot = readBallot(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgRecoverOpt, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgRecoverOpt
		m.ReqID = r.Uvarint()
		m.Tx = TxID(r.String())
		m.Key = record.Key(r.InternString())
		m.KeySeq = r.Uvarint()
		m.Opt, m.HasOpt = readGuardedOption(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgOptDecided, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgOptDecided
		m.ReqID = r.Uvarint()
		m.Tx = TxID(r.String())
		m.Key = record.Key(r.InternString())
		m.Decision = Decision(r.Byte())
		m.Opt, m.HasOpt = readGuardedOption(r)
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgSyncReq, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgSyncReq
		m.ReqID = r.Uvarint()
		m.From = record.Key(r.InternString())
		m.Limit = int(r.Varint())
		return m, r.Err()
	})
	transport.RegisterWire(tagMsgSyncReply, func(r *transport.WireReader) (transport.Message, error) {
		var m MsgSyncReply
		m.ReqID = r.Uvarint()
		if n := r.Count("sync entry"); n > 0 {
			m.Entries = make([]SyncEntry, 0, n)
			for i := 0; i < n; i++ {
				m.Entries = append(m.Entries, SyncEntry{
					Key: record.Key(r.InternString()), Value: record.ReadEncoded(r),
					Version: record.Version(r.Uvarint()), Lineage: readLineage(r, nil),
				})
			}
		}
		m.Next = record.Key(r.InternString())
		return m, r.Err()
	})
}
