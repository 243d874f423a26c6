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
	"bytes"
	"errors"
	"fmt"
	"time"

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
	// sequence, minted at Commit. Together with the lane (the TxID
	// prefix, see laneOf) it names this option in LineageSummaries
	// forever. 0 means "no lineage identity" (recovery-fiat options).
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

// VotedOption is an option plus a decision — one element of the
// cstructs acceptors vote on. Reason refines reject decisions.
type VotedOption struct {
	Opt      Option
	Decision Decision
	Reason   RejectReason
}

// decidedEntry is one settled option, in the shape the oplog persists
// it (oplogEntry without the record key, which a per-record log
// implies): transaction, decision, lineage identity and the update in
// its record.AppendUpdate encoding — one pointer-free allocation,
// decoded only by the cold readers (recovery replies, lineage grafts,
// checkpoints). Coordinator, write-set and sibling sequences are not
// kept: dangling-transaction recovery works from an unresolved vote,
// never from a settled entry, and NewDurableStorageNode's replay
// proves the rest sufficient. kind mirrors the update's kind so
// adoptBase's physical-containment rule scans without decoding.
type decidedEntry struct {
	Tx        TxID
	up        []byte // nil: contents never known (the oplog's HasUp false)
	settledAt int64  // UnixNano
	KeySeq    uint64
	Decision  Decision
	kind      record.UpdateKind
}

// settledEntry builds the entry for opt settled as d at now. Without
// contents (hasOpt false) only the transaction and decision are kept.
func settledEntry(d Decision, opt Option, hasOpt bool, now time.Time) decidedEntry {
	e := decidedEntry{Tx: opt.Tx, Decision: d, settledAt: now.UnixNano()}
	if hasOpt {
		e.up = encodeUpdate(opt.Update)
		e.KeySeq = opt.KeySeq
		e.kind = opt.Update.Kind
	}
	return e
}

// encodeUpdate returns up in record.AppendUpdate's encoding, in an
// allocation of exactly its size: the bytes are retained per settled
// option, so the slack an append-grown buffer carries would be too.
func encodeUpdate(up record.Update) []byte {
	var scratch [128]byte // on the stack; covers all but blob-carrying updates
	return bytes.Clone(record.AppendUpdate(scratch[:0], up))
}

// lane is the entry's coordinator lane (a substring of Tx, no copy).
func (e *decidedEntry) lane() string { return laneOf(e.Tx) }

// update decodes the retained contents. The bytes are this process's
// own record.AppendUpdate output, so decoding cannot fail.
func (e *decidedEntry) update() record.Update {
	return record.ReadUpdate(transport.NewWireReader(e.up))
}

// option rebuilds what the entry retains of its option — Tx, Update
// and KeySeq, all a visibility message needs — and whether it has
// contents at all.
func (e *decidedEntry) option() (Option, bool) {
	if e.up == nil {
		return Option{}, false
	}
	return Option{Tx: e.Tx, Update: e.update(), KeySeq: e.KeySeq}, true
}

// decidedLog remembers one record's decided options, keyed by
// transaction (a transaction writes a record at most once), so votes,
// visibility and recovery are idempotent and diverged lineages can be
// merged. Entries sit in settle order in one slice; the zero value is
// an empty log, so a record that never settles anything pays for a
// nil slice and a nil map. Most records hold a handful of entries and
// are scanned; a log that reaches decidedIndexMin entries also
// answers get from a map, because a hot commutative key holds
// thousands. Two eviction regimes share it:
//
//   - Entries WITH a lineage identity (KeySeq > 0) are released only
//     once (a) they are older than the retention horizon AND (b)
//     every peer replica's last-known LineageSummary contains them
//     (the acked predicate). The summary carries their settled
//     knowledge forever, and the all-peer-ack guarantee is what makes
//     release safe: an option every replica has settled can never
//     again be the missing half of a fork, so its contents are never
//     needed for a graft. Retention is therefore a pure cache knob —
//     shrinking it can cost a recovery round trip, never a lost
//     apply. Peer summaries arrive with anti-entropy replies, Phase1b
//     and Phase2a bases only: a node running with SyncInterval 0 (the
//     server default) and no classic rounds on a record never learns
//     them, so there these entries are never released and the log is
//     the steady per-option cost, not a warm-up cache.
//   - Legacy entries (KeySeq == 0: recovery-fiat options) keep the
//     old count-capped AND age-gated FIFO rule; they carry no effect
//     to lose.
//
// Unacked entries are retained past the count cap — the log grows
// with the divergence horizon (e.g. a partitioned peer), which is the
// minimum state any exact merge scheme must keep.
type decidedLog struct {
	entries []decidedEntry
	index   map[TxID]Decision // nil below decidedIndexMin entries

	// lastCompactLen amortizes compaction: a full pass runs only once
	// the log doubles past max(decidedLimit, lastCompactLen), so a log
	// with nothing evictable costs O(1) amortized per settle, not O(n).
	lastCompactLen int
}

const (
	// decidedLimit is the length past which a log is worth compacting.
	decidedLimit            = 512
	defaultDecidedRetention = 2 * time.Minute
	// decidedIndexMin is the length at which a log builds its lookup
	// index: below it a scan of 64-byte entries beats hashing the
	// transaction id and costs no map per record.
	decidedIndexMin = 32
)

// find returns the position of tx's entry, -1 if absent.
func (l *decidedLog) find(tx TxID) int {
	if l.index != nil {
		if _, ok := l.index[tx]; !ok {
			return -1
		}
	}
	for i := range l.entries {
		if l.entries[i].Tx == tx {
			return i
		}
	}
	return -1
}

// get looks up a decision.
func (l *decidedLog) get(tx TxID) (Decision, bool) {
	if l.index != nil {
		d, ok := l.index[tx]
		return d, ok
	}
	if i := l.find(tx); i >= 0 {
		return l.entries[i].Decision, true
	}
	return DecUnknown, false
}

// entry looks up the full settled entry (a scan: only recovery asks).
func (l *decidedLog) entry(tx TxID) (decidedEntry, bool) {
	if i := l.find(tx); i >= 0 {
		return l.entries[i], true
	}
	return decidedEntry{}, false
}

// record stores a final decision (first write wins: decisions are
// immutable once made). It reports whether the entry was newly
// inserted (false for already-known decisions), so callers can
// persist each decision exactly once. Eviction is the caller's
// concern (compactLegacy / StorageNode.compactDecided).
func (l *decidedLog) record(e decidedEntry) bool {
	if _, ok := l.get(e.Tx); ok {
		return false
	}
	l.entries = append(l.entries, e)
	if l.index != nil {
		l.index[e.Tx] = e.Decision
	} else if len(l.entries) >= decidedIndexMin {
		l.reindex()
	}
	return true
}

// reindex rebuilds the lookup index from the entries, or drops it
// when the log is short again.
func (l *decidedLog) reindex() {
	l.index = nil
	if len(l.entries) < decidedIndexMin {
		return
	}
	l.index = make(map[TxID]Decision, len(l.entries))
	for i := range l.entries {
		l.index[l.entries[i].Tx] = l.entries[i].Decision
	}
}

// compactLegacy applies the pre-lineage eviction rule (count cap +
// age gate, oldest first); used by the leader's learned log, which
// has no summary backing it.
func (l *decidedLog) compactLegacy(now time.Time, retention time.Duration) {
	horizon := now.Add(-retention).UnixNano()
	drop := 0
	for len(l.entries)-drop > decidedLimit && l.entries[drop].settledAt <= horizon {
		delete(l.index, l.entries[drop].Tx)
		drop++
	}
	// Zero the vacated slots: the backing array outlives the reslice
	// and would keep their transaction ids and contents reachable.
	clear(l.entries[:drop])
	l.entries = l.entries[drop:]
}

// wantsCompact reports whether the log has doubled past
// max(decidedLimit, size after the last pass) — the amortization that
// keeps per-settle compaction O(1) even when nothing is releasable
// (the periodic sweep additionally forces passes on over-limit logs,
// so a log whose entries become releasable later still shrinks).
func (l *decidedLog) wantsCompact() bool {
	return len(l.entries) >= 2*max(decidedLimit, l.lastCompactLen)
}

// compact releases evictable entries: aged past retention and either
// legacy (KeySeq 0) or acked by every peer summary. Returns how many
// entries were released.
func (l *decidedLog) compact(now time.Time, retention time.Duration, acked func(e *decidedEntry) bool) int {
	horizon := now.Add(-retention).UnixNano()
	keep := l.entries[:0]
	for i := range l.entries {
		e := &l.entries[i]
		if e.settledAt <= horizon && (e.KeySeq == 0 || acked(e)) {
			continue
		}
		keep = append(keep, *e)
	}
	evicted := len(l.entries) - len(keep)
	clear(l.entries[len(keep):])
	l.entries = keep
	l.lastCompactLen = len(keep)
	if evicted > 0 {
		l.reindex()
	}
	return evicted
}
