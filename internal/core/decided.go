package core

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// decidedLog remembers one record's decided options, keyed by
// transaction (a transaction writes a record at most once), so votes,
// visibility and recovery are idempotent and diverged lineages can be
// merged. Two eviction regimes share it:
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
//
// The log is the decision record's twin (DESIGN §12): its entries sit
// in settle order, back to back in one byte slice, each
//
//	u64 settledAt | uvarint n | n-byte oplog decision body
//
// where the body is exactly what the 0xD2 record carries after its
// key (string Tx | u8 Decision | uvarint KeySeq | bool HasUp |
// [Update]), so persisting or checkpointing an entry copies it. The
// settle time is fixed-width (little-endian UnixNano): a real clock's
// would take nine bytes as a varint, and a scan steps over eight
// without decoding them. A
// settled option costs its encoded bytes and nothing else: no slot, no
// pointer, no transaction id string of its own. The zero value is an
// empty log, so a record that never settles anything pays for a nil
// slice and a nil pointer. Most records hold a handful of entries,
// which get scans comparing bytes; a log that reaches decidedIndexMin
// entries also answers from an index keyed by a 64-bit hash of the
// transaction id, because a hot commutative key holds thousands.
type decidedLog struct {
	buf []byte
	n   int
	idx *decidedIndex // nil below decidedIndexMin entries
}

// decidedIndex is what only a long log keeps beside its entries.
type decidedIndex struct {
	// pos maps the hash of a transaction id to the position of the one
	// entry with that hash, or to -1 once two have shared it (get then
	// scans).
	pos map[uint64]int
	// head is how many bytes compactLegacy has dropped off the front of
	// buf since the index was built. A position is head plus the
	// entry's offset in buf, so positions survive the drop.
	head int
	// lastCompactLen amortizes compaction: a full pass runs only once
	// the log doubles past max(decidedLimit, lastCompactLen), so a log
	// with nothing evictable costs O(1) amortized per settle, not O(n).
	// (Below decidedIndexMin entries it would read as decidedLimit.)
	lastCompactLen int
}

const (
	// decidedLimit is the length past which a log is worth compacting.
	decidedLimit            = 512
	defaultDecidedRetention = 2 * time.Minute
	// decidedIndexMin is the length at which a log builds its lookup
	// index: below it a scan comparing transaction ids in place beats
	// hashing one and costs no map per record.
	decidedIndexMin = 32
	// decidedFitMax is the size up to which a log's buffer grows to fit
	// each new entry: most records settle a few dozen options at most,
	// and slack on each of them would be paid by every replica. Past it
	// the buffer grows geometrically, so a hot key's settle stays O(1)
	// amortized.
	decidedFitMax = 4 << 10
)

// decidedSeed keys the index hash. Lookups compare the bytes behind
// every hit, so the seed changes no answer, only which ids collide.
var decidedSeed = maphash.MakeSeed()

// decidedEntry is one entry of a decided log read in place — the oplog
// decision body's fields and the settle time — and the decoded view
// the cold readers take: recovery replies, grafts and replay. Nothing
// is copied (body, tx and up alias the log), so a view is good until
// the log next changes; what outlives that is decoded (option,
// update).
type decidedEntry struct {
	body      []byte // the whole oplog decision body
	tx        []byte
	up        []byte // record.AppendUpdate output; nil: contents never known (HasUp false)
	settledAt int64  // UnixNano
	KeySeq    uint64
	Decision  Decision
}

// appendDecision appends the oplog decision body of tx settled as d
// (disk.go's layout). A nil up records a decision without contents.
func appendDecision(b []byte, tx TxID, d Decision, keySeq uint64, up *record.Update) []byte {
	b = transport.AppendString(b, string(tx))
	b = append(b, uint8(d))
	b = transport.AppendUvarint(b, keySeq)
	b = transport.AppendBool(b, up != nil)
	if up != nil {
		b = record.AppendUpdate(b, *up)
	}
	return b
}

// readDecision reads a decision body in place. Every body it sees was
// built by appendDecision in this process (replay re-encodes what it
// decodes), so it cannot be malformed.
func readDecision(body []byte) decidedEntry {
	e := decidedEntry{body: body}
	n, k := binary.Uvarint(body)
	e.tx = body[k : k+int(n)]
	rest := body[k+int(n):]
	e.Decision = Decision(rest[0])
	e.KeySeq, k = binary.Uvarint(rest[1:])
	if rest[1+k] != 0 {
		e.up = rest[2+k:]
	}
	return e
}

// kind is the update's kind (its encoding's first byte), 0 without
// contents: adoptBase's physical-containment rule scans it undecoded.
func (e *decidedEntry) kind() record.UpdateKind {
	if e.up == nil {
		return 0
	}
	return record.UpdateKind(e.up[0])
}

// lane is the entry's coordinator lane (laneOf, in place).
func (e *decidedEntry) lane() []byte {
	if i := bytes.LastIndexByte(e.tx, '#'); i >= 0 {
		return e.tx[:i]
	}
	return e.tx
}

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
	return Option{Tx: TxID(e.tx), Update: e.update(), KeySeq: e.KeySeq}, true
}

// len is the number of entries.
func (l *decidedLog) len() int { return l.n }

// bodyAt returns the body of the entry at offset off of buf, in place,
// and the next entry's offset.
func (l *decidedLog) bodyAt(off int) ([]byte, int) {
	n, k := binary.Uvarint(l.buf[off+8:])
	start := off + 8 + k
	return l.buf[start : start+int(n)], start + int(n)
}

// at reads the entry at offset off of buf and returns the next one's.
func (l *decidedLog) at(off int) (decidedEntry, int) {
	body, next := l.bodyAt(off)
	e := readDecision(body)
	e.settledAt = int64(binary.LittleEndian.Uint64(l.buf[off:]))
	return e, next
}

// txAt returns the transaction id of the entry at offset off of buf,
// in place, and the next entry's offset: all a lookup reads. Both
// lengths it reads are nearly always one-byte varints, which it decodes
// itself; a scan is this function in a loop.
func (l *decidedLog) txAt(off int) ([]byte, int) {
	if n := l.buf[off+8]; n < 0x80 {
		if m := l.buf[off+9]; m < 0x80 {
			return l.buf[off+10 : off+10+int(m)], off + 9 + int(n)
		}
	}
	body, next := l.bodyAt(off)
	m, k := binary.Uvarint(body)
	return body[k : k+int(m)], next
}

// each calls fn on the entries in settle order until it returns false.
// Views are passed by value, so a walk allocates nothing.
func (l *decidedLog) each(fn func(e decidedEntry) bool) {
	for off := 0; off < len(l.buf); {
		e, next := l.at(off)
		if !fn(e) {
			return
		}
		off = next
	}
}

// find returns the offset in buf of tx's entry, -1 if absent.
func (l *decidedLog) find(tx TxID) int {
	if l.idx != nil {
		pos, ok := l.idx.pos[maphash.String(decidedSeed, string(tx))]
		if !ok {
			return -1
		}
		if pos >= 0 {
			off := pos - l.idx.head
			if id, _ := l.txAt(off); string(id) != string(tx) {
				return -1 // the one entry with this hash is another's
			}
			return off
		}
		// Two transactions have shared the hash: scan.
	}
	for off := 0; off < len(l.buf); {
		id, next := l.txAt(off)
		if string(id) == string(tx) {
			return off
		}
		off = next
	}
	return -1
}

// get looks up a decision.
func (l *decidedLog) get(tx TxID) (Decision, bool) {
	if off := l.find(tx); off >= 0 {
		e, _ := l.at(off)
		return e.Decision, true
	}
	return DecUnknown, false
}

// entry looks up the settled entry (only recovery asks).
func (l *decidedLog) entry(tx TxID) (decidedEntry, bool) {
	if off := l.find(tx); off >= 0 {
		e, _ := l.at(off)
		return e, true
	}
	return decidedEntry{}, false
}

// record stores opt's final decision d, settled at now (first write
// wins: decisions are immutable once made). Without contents (hasOpt
// false) only the transaction and decision are kept. It reports
// whether the entry was new (false for already-known decisions), so
// callers persist each decision exactly once, and returns the entry's
// body as the log holds it — the bytes the oplog record carries —
// valid until the log next changes. Eviction is the caller's concern
// (compactLegacy / StorageNode.compactDecided).
func (l *decidedLog) record(d Decision, opt Option, hasOpt bool, now time.Time) (body []byte, isNew bool) {
	if l.find(opt.Tx) >= 0 {
		return nil, false
	}
	var up *record.Update
	var keySeq uint64
	if hasOpt {
		up, keySeq = &opt.Update, opt.KeySeq
	}
	var scratch [256]byte // on the stack; covers all but blob-carrying updates
	return l.add(now.UnixNano(), appendDecision(scratch[:0], opt.Tx, d, keySeq, up)), true
}

// restore stores a replayed decision body settled at settledAt, unless
// its transaction is already known, and reports whether it did.
func (l *decidedLog) restore(settledAt int64, body []byte) bool {
	if l.find(TxID(readDecision(body).tx)) >= 0 {
		return false
	}
	l.add(settledAt, body)
	return true
}

// add appends an entry whose transaction the log does not hold and
// returns its body as stored.
func (l *decidedLog) add(settledAt int64, body []byte) []byte {
	var hdr [8 + binary.MaxVarintLen64]byte
	h := binary.LittleEndian.AppendUint64(hdr[:0], uint64(settledAt))
	h = binary.AppendUvarint(h, uint64(len(body)))
	off := len(l.buf)
	switch need := off + len(h) + len(body); {
	case need <= cap(l.buf):
	case need <= decidedFitMax:
		grown := make([]byte, off, need)
		copy(grown, l.buf)
		l.buf = grown
	default:
		l.buf = slices.Grow(l.buf, need-off)
	}
	l.buf = append(l.buf, h...)
	l.buf = append(l.buf, body...)
	stored := l.buf[len(l.buf)-len(body):]
	l.n++
	if l.idx != nil {
		tx, _ := l.txAt(off)
		l.idx.file(tx, l.idx.head+off)
	} else if l.n >= decidedIndexMin {
		l.reindex()
	}
	return stored
}

// file enters the entry of tx at position pos.
func (x *decidedIndex) file(tx []byte, pos int) {
	h := maphash.Bytes(decidedSeed, tx)
	if _, shared := x.pos[h]; shared {
		pos = -1
	}
	x.pos[h] = pos
}

// reindex rebuilds the lookup index from the entries, or drops it
// when the log is short again.
func (l *decidedLog) reindex() {
	var lastCompactLen int
	if l.idx != nil {
		lastCompactLen = l.idx.lastCompactLen
	}
	l.idx = nil
	if l.n < decidedIndexMin {
		return
	}
	l.idx = &decidedIndex{pos: make(map[uint64]int, l.n), lastCompactLen: lastCompactLen}
	for off := 0; off < len(l.buf); {
		tx, next := l.txAt(off)
		l.idx.file(tx, off)
		off = next
	}
}

// compactLegacy applies the pre-lineage eviction rule (count cap +
// age gate, oldest first); used by the leader's learned log, which
// has no summary backing it. The dropped entries leave the index one
// by one and buf is resliced past them, so a pass costs what it drops.
func (l *decidedLog) compactLegacy(now time.Time, retention time.Duration) {
	horizon := now.Add(-retention).UnixNano()
	off := 0
	for l.n > decidedLimit {
		e, next := l.at(off)
		if e.settledAt > horizon {
			break
		}
		if h := maphash.Bytes(decidedSeed, e.tx); l.idx.pos[h] == l.idx.head+off {
			delete(l.idx.pos, h)
		}
		off = next
		l.n--
	}
	// The dropped bytes hold no pointers; the backing array sheds them
	// when it next grows.
	l.buf = l.buf[off:]
	if l.idx != nil {
		l.idx.head += off
	}
}

// wantsCompact reports whether the log has doubled past
// max(decidedLimit, size after the last pass) — the amortization that
// keeps per-settle compaction O(1) even when nothing is releasable
// (the periodic sweep additionally forces passes on over-limit logs,
// so a log whose entries become releasable later still shrinks).
func (l *decidedLog) wantsCompact() bool {
	return l.idx != nil && l.n >= 2*max(decidedLimit, l.idx.lastCompactLen)
}

// compact releases evictable entries: aged past retention and either
// legacy (KeySeq 0) or acked by every peer summary. The kept entries
// move up in place. Returns how many entries were released.
func (l *decidedLog) compact(now time.Time, retention time.Duration, acked func(e decidedEntry) bool) int {
	horizon := now.Add(-retention).UnixNano()
	w, kept := 0, 0
	for off := 0; off < len(l.buf); {
		e, next := l.at(off)
		if !(e.settledAt <= horizon && (e.KeySeq == 0 || acked(e))) {
			w += copy(l.buf[w:], l.buf[off:next])
			kept++
		}
		off = next
	}
	evicted := l.n - kept
	l.buf = l.buf[:w]
	l.n = kept
	if evicted > 0 {
		l.reindex()
	}
	if l.idx != nil {
		l.idx.lastCompactLen = kept
	}
	return evicted
}
