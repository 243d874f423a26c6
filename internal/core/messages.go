package core

import (
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// ---- Client/coordinator ⇄ storage node messages ----

// MsgRead asks a replica for its committed state of a key (read
// committed: pending options are never visible).
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
	// Escrow piggybacks the replica's demarcation state for the key
	// (set when constraints are configured), bootstrapping gateway
	// headroom accounts without a second read.
	Escrow EscrowSnap
}

// MsgProposeFast was a lone fast-path proposal; every proposal is a
// MsgProposeBatch now, and the type has no wire codec and no sender.
// It stays declared only because benchmark/trace.go names it.
type MsgProposeFast struct {
	Opt Option
}

// MsgVote is an acceptor's Phase2b to the coordinator-as-learner for
// the fast path: its decision on one option. It travels only as an
// element of MsgVoteBatch.
type MsgVote struct {
	OptID    OptionID
	Ballot   paxos.Ballot
	Decision Decision
	// Reason refines reject decisions with a typed cause (e.g. the
	// kind-disjoint rule), surfaced to the application through the
	// coordinator.
	Reason RejectReason
	// Forwarded reports the acceptor forwarded the proposal to the
	// record's leader instead of voting (record in a classic window);
	// Decision is DecUnknown then and the leader will answer with
	// MsgLearned.
	Forwarded bool
	Leader    transport.NodeID
	// WrongGroup reports the node refused to act because its replica
	// group no longer owns the key under the published shard ring (the
	// proposal followed a route minted before a shard move). Decision
	// is DecUnknown; the coordinator drops its stale leader hint and
	// re-dispatches under the current ring.
	WrongGroup bool
	// Escrow piggybacks the acceptor's demarcation inputs for the
	// voted record (set for commutative options under constraints), so
	// learners — and through them the gateway tier — track true
	// escrow headroom instead of estimating it from stale reads.
	Escrow EscrowSnap
}

// AttrEscrow is an acceptor's escrow snapshot for one constrained
// attribute of one record: the committed base value plus the
// worst-case pending movement of its unresolved accepted votes
// (exactly the inputs of the quorum-demarcation check, §3.4.2).
type AttrEscrow struct {
	Attr     string
	Base     int64
	PendDown int64 // sum of accepted pending decrements (<= 0)
	PendUp   int64 // sum of accepted pending increments (>= 0)
}

// EscrowSnap is the demarcation state an acceptor piggybacks on
// Phase2b votes and read replies. Version is the committed record
// version the snapshot was taken at, so consumers can order snapshots
// from different acceptors without extra coordination.
type EscrowSnap struct {
	Valid   bool
	Version record.Version
	Attrs   []AttrEscrow
	// Contenders counts the distinct gateway groups (coordinator-id
	// prefixes, see GatewayGroup) holding pending accepted commutative
	// votes on the record when the snapshot was taken — the live
	// contention signal gateways use to adapt their headroom-share
	// divisor (0 = nobody pending, which an admitting gateway reads as
	// "just me").
	Contenders int
}

// MsgLearned tells the coordinator an option's final decision
// (from the leader on classic paths and recoveries).
type MsgLearned struct {
	OptID    OptionID
	Decision Decision
	// Reason refines reject decisions (see MsgVote.Reason).
	Reason RejectReason
	// Escrow piggybacks the leader replica's demarcation state for the
	// decided record (set for commutative options under constraints).
	// Classic-path decisions never produce fast-path votes, so without
	// this the gateway tier's headroom accounts would starve on
	// classic-heavy workloads (every record in a γ window).
	Escrow EscrowSnap
}

// MsgVisibility is the coordinator's (or recovery node's) "Learned/
// execute the option" notification (§3.2.1): commit makes the update
// visible, abort discards the option. Opt carries the update, so
// replicas that never saw the proposal can still apply it, and the
// option's identity (Tx, KeySeq) — everything an acceptor reads or
// its decided log keeps. Coordinator, write-set and sibling sequences
// stay behind (see visibilityFor): they matter to an unresolved vote,
// and a visibility message resolves it.
type MsgVisibility struct {
	Opt    Option
	Commit bool
}

// visibilityFor builds opt's visibility message, carrying Tx, Update
// and KeySeq only.
func visibilityFor(opt Option, commit bool) MsgVisibility {
	return MsgVisibility{
		Opt:    Option{Tx: opt.Tx, Update: opt.Update, KeySeq: opt.KeySeq},
		Commit: commit,
	}
}

// ---- Batched variants (the paper's §7 batching optimization) ----

// MsgProposeBatch carries every option a transaction proposes to one
// storage node in a single message (different records of the
// write-set often share replicas).
type MsgProposeBatch struct {
	Opts []Option
}

// MsgVoteBatch answers a propose batch with one vote per option.
type MsgVoteBatch struct {
	Votes []MsgVote
}

// MsgVisibilityBatch delivers a transaction's visibility for all its
// options on one node at once.
type MsgVisibilityBatch struct {
	Items []MsgVisibility
}

// ---- Coordinator/acceptor ⇄ leader messages ----

// MsgProposeLeader routes an option through the record's master for
// classic ballots (Multi mode, or fast proposals made during a
// classic window and forwarded by acceptors).
type MsgProposeLeader struct {
	Opt Option
}

// MsgStartRecovery asks a leader to run collision/timeout recovery
// for a record. Opt carries the stuck option (if the requester has
// it) so it cannot be lost even if every acceptor dropped it.
type MsgStartRecovery struct {
	Key    record.Key
	Opt    Option
	HasOpt bool
}

// ---- Paxos phase messages (leader ⇄ acceptors) ----

// MsgPhase1a opens a classic ballot for one record.
type MsgPhase1a struct {
	Key    record.Key
	Ballot paxos.Ballot
}

// MsgPhase1b is an acceptor's promise plus everything the leader
// needs to choose safely: its accepted ballot and votes, its
// committed state, and the record's lineage summary — the exact set
// of options whose outcomes its base reflects, replacing the old
// retention-windowed decided list (and its contents) on the wire.
type MsgPhase1b struct {
	Key     record.Key
	Ballot  paxos.Ballot // the promised ballot (echo of Phase1a)
	Bal     paxos.Ballot // ballot of the reported votes
	Votes   []VotedOption
	Version record.Version
	Value   record.Encoded
	Lineage LineageSummary
}

// MsgPhase2a proposes the leader's cstruct (votes with decisions) in
// a classic ballot. Seq identifies this proposal for acknowledgement
// counting. When HasBase is set, acceptors behind BaseVersion adopt
// the leader's committed base (this is also how a classic round
// "writes a new base value" for demarcation, §3.4.2). BaseLineage is
// the summary of options the base already contains, so an adopting
// replica neither re-applies them when their (still in flight)
// visibility notifications arrive later nor loses its own applies the
// base is missing.
type MsgPhase2a struct {
	Key         record.Key
	Ballot      paxos.Ballot
	Seq         uint64
	CStruct     []VotedOption
	HasBase     bool
	BaseVersion record.Version
	BaseValue   record.Encoded
	BaseLineage LineageSummary
}

// MsgPhase2b acknowledges a Phase2a proposal (or reports a higher
// promised ballot, sending the leader back to Phase 1).
type MsgPhase2b struct {
	Key      record.Key
	Ballot   paxos.Ballot
	Seq      uint64
	OK       bool
	Promised paxos.Ballot // set when OK is false
}

// MsgEnableFast re-opens fast ballots after γ classic instances
// (the fast-policy probe, §3.3.2).
type MsgEnableFast struct {
	Key    record.Key
	Ballot paxos.Ballot // a fast ballot outranking the classic one
}

// ---- Dangling-transaction recovery (§3.2.3) ----

// MsgRecoverOpt asks the leader of one key to force a decision for a
// transaction's option on that key (used by the pending-option sweep
// when an app-server died before sending visibility). KeySeq is the
// queried option's lineage identity (from the stuck sibling's
// WriteSeqs), letting the leader answer exactly from its summary even
// after the decided-log entry was released — without it an
// evicted-but-settled option would be re-forced through a classic
// round and could be fiat-rejected against its true decision.
type MsgRecoverOpt struct {
	ReqID  uint64
	Tx     TxID
	Key    record.Key
	KeySeq uint64
	Opt    Option // the requester's copy, if it has one
	HasOpt bool
}

// MsgOptDecided answers MsgRecoverOpt with the final decision and,
// when the leader's settled entry has them, the option contents
// needed to apply visibility (Tx, Update and KeySeq; see
// decidedEntry).
type MsgOptDecided struct {
	ReqID    uint64
	Tx       TxID
	Key      record.Key
	Decision Decision
	Opt      Option
	HasOpt   bool
}
