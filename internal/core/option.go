// Package core implements the MDCC commit protocol (Kraska et al.,
// EuroSys 2013): per-record Generalized/Fast/Multi-Paxos instances
// that accept *options to execute updates*, an app-server-side
// coordinator that learns options and derives the transaction outcome
// deterministically (no unilateral aborts), quorum demarcation for
// value constraints on commutative updates, the pessimistic
// deadlock-avoidance policy, the fast⇄classic ballot policy (γ), and
// recovery of dangling transactions left by failed app-servers.
//
// Roles and message flow (defaults; §3 of the paper):
//
//	Coordinator (app-server DB library)
//	  ├─ fast path:   Propose ─→ all storage nodes ─ Vote ─→ coordinator
//	  ├─ classic path: Propose ─→ record leader ─ Phase2a ─→ nodes ─→ leader ─ Learned ─→ coordinator
//	  └─ after learning all options: Visibility ─→ storage nodes (async)
//
// Everything runs in transport handler context: one goroutine per
// node, no internal locking (see internal/transport).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// TxID uniquely identifies a transaction. Coordinators mint them from
// their node ID plus a sequence number (the paper suggests UUIDs; a
// node-scoped sequence is equally unique and deterministic in the
// simulator).
type TxID string

// Decision is an acceptor's or learner's judgment of an option.
type Decision uint8

// Decision values.
const (
	DecUnknown Decision = iota
	DecAccept           // the paper's ω(up, ✓)
	DecReject           // the paper's ω(up, ✗)
)

// String renders the decision.
func (d Decision) String() string {
	switch d {
	case DecAccept:
		return "accept"
	case DecReject:
		return "reject"
	default:
		return "unknown"
	}
}

// OptionID identifies one option: a transaction writes each record at
// most once, so (transaction, key) is unique.
type OptionID struct {
	Tx  TxID
	Key record.Key
}

// String renders "tx@key".
func (id OptionID) String() string { return fmt.Sprintf("%s@%s", id.Tx, id.Key) }

// compare orders option ids by transaction, then key: the one order a
// leader processes options in, so every replica adopting its cstruct
// sees the same one.
func (id OptionID) compare(o OptionID) int {
	if c := cmp.Compare(id.Tx, o.Tx); c != 0 {
		return c
	}
	return cmp.Compare(id.Key, o.Key)
}

// sortedIDs returns m's option ids in compare order.
func sortedIDs[V any](m map[OptionID]V) []OptionID {
	ids := make([]OptionID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, OptionID.compare)
	return ids
}

// Option is a proposed right to execute one update of a transaction.
// Per §3.2.3 it carries the transaction id and the full write-set key
// list so any node can reconstruct and finish the transaction if the
// app-server dies.
type Option struct {
	Tx       TxID
	Coord    transport.NodeID // coordinator to notify when learned
	Update   record.Update
	WriteSet []record.Key // primary keys of the whole write-set

	// KeySeq is the option's lineage identity within its coordinator
	// lane: the per-(coordinator incarnation, key) contiguous proposal
	// sequence, minted at Commit from 1. Together with the lane (the
	// TxID prefix, see laneOf) it names this option in LineageSummaries
	// forever. Every option has one: a recovery's fiat reject or abort
	// copies it from the stuck option's WriteSeqs.
	KeySeq uint64
	// WriteSeqs carries the KeySeq of every sibling option of the
	// transaction, parallel to WriteSet, so dangling-transaction
	// recovery can ask each key's leader about the sibling by lineage
	// identity even after the leader's decided-log entry was evicted
	// (the summary then answers exactly; see onRecoverOpt).
	WriteSeqs []uint64
}

// ID returns the option's identity.
func (o Option) ID() OptionID { return OptionID{Tx: o.Tx, Key: o.Update.Key} }

// wellFormed reports whether a proposed option has the shape Commit
// gives it: WriteSeqs parallel to WriteSet, and the option's own key
// in WriteSet with its own KeySeq at that position. Recovery of a
// dangling transaction rests on that shape: it asks about every key of
// WriteSet, its own included, by the WriteSeqs entry at the key's
// position. An option of any other shape is refused where it enters
// (onProposeBatch, leaderPropose, and onPhase2a for an accept vote)
// and never voted on.
func (o Option) wellFormed() bool {
	if len(o.WriteSeqs) != len(o.WriteSet) {
		return false
	}
	i := slices.Index(o.WriteSet, o.Update.Key)
	return i >= 0 && o.WriteSeqs[i] == o.KeySeq
}

// RejectReason refines a reject decision with a typed cause that
// travels back to the application (votes, cstructs, learned
// messages). Most rejects are plain protocol aborts (version
// conflicts, demarcation) and carry ReasonNone.
type RejectReason uint8

// Reject reasons.
const (
	ReasonNone RejectReason = iota
	// ReasonMixedKinds: the option's update kind conflicts with the
	// record's established class — a physical rewrite of a key with
	// commutative history, or a commutative delta on a physically
	// rewritten key (DESIGN.md §5's kind-disjoint rule, enforced at
	// the acceptor instead of silently voiding the merge envelope).
	ReasonMixedKinds
)

// ErrMixedUpdateKinds is the typed error surfaced to clients when an
// option is rejected with ReasonMixedKinds. Record-creating inserts
// (ReadVersion 0) are class-neutral; the class locks on the first
// non-creating update.
var ErrMixedUpdateKinds = errors.New("mdcc/core: update kind conflicts with the key's established class (kind-disjoint rule)")

// ErrRepeatedKey is the typed error a coordinator refuses a write-set
// with when it names one key twice: a transaction has one option per
// key, and each option one lineage identity. Nothing is proposed. The
// refusal wraps it with the key it names.
var ErrRepeatedKey = errors.New("mdcc/core: write-set names a key twice")

// VotedOption is an option plus a decision — one element of the
// cstructs acceptors vote on. Reason refines reject decisions.
type VotedOption struct {
	Opt      Option
	Decision Decision
	Reason   RejectReason
}

// optIndex returns the position of id's option in vs, -1 if none.
func optIndex(vs []VotedOption, id OptionID) int {
	for i := range vs {
		if vs[i].Opt.ID() == id {
			return i
		}
	}
	return -1
}
