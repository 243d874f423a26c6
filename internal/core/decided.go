package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/transport"
)

// decidedLog remembers one record's decided options, keyed by
// transaction (a transaction writes a record at most once), so votes,
// visibility and recovery are idempotent and diverged lineages can be
// merged. Only a commutative record's merges read an entry's contents
// (grafts); the summary answers idempotence and recovery by itself. So
// a record whose class is locked physical keeps no entry with a
// lineage identity at all: the lock drops the ones it holds
// (lockPhysical), and later settles add none (StorageNode.settleOption,
// replay), leaving its buffer the packed summary alone. On any other
// record two eviction regimes share the log:
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
//     and Phase2a bases, and only a log longer than decidedLimit —
//     the only one compaction reads — keeps them (decidedIndex.peers),
//     so on an ordinary commutative record the log is the steady
//     per-option cost, not a warm-up cache.
//   - Legacy entries (KeySeq == 0: recovery-fiat options) keep the
//     old count-capped AND age-gated FIFO rule; they carry no effect
//     to lose.
//
// Unacked entries are retained past the count cap — the log grows
// with the divergence horizon (e.g. a partitioned peer), which is the
// minimum state any exact merge scheme must keep.
//
// The log is packed against the node's lane table (DESIGN §12). One
// byte slice holds its entries, in settle order and back to back, and
// behind them the record's packed lineage summary (packedLineage):
//
//	buf[:end]  entries, each uvarint n | n-byte packed decision
//	buf[end:]  summary: the record's packed LineageSummary, or nothing
//
// where the packed decision is the oplog decision body (the 0xD2
// record after its key: string Tx | u8 Decision | uvarint KeySeq |
// bool HasUp | [Update]) with two parts made smaller:
//
//	id:     uvarint lane+1 | uvarint seq   Tx is lane#seq, seq in canonical decimal
//	        0 | string Tx                  any other id
//	        u8 Decision | uvarint KeySeq |
//	up:     0                              no contents
//	        1 | Update                     record.AppendUpdate output
//	        2 | u8 Kind | Update after Key the same less its key, the record's
//
// so an entry keeps a lane index and a sequence, not its transaction
// id, and not the key every update of the record repeats. A settle's
// decision record is written from its option (appendDecision); a
// checkpoint expands each entry back into the exact body (appendBody),
// and replay packs what it reads (restore). An entry
// holds no settle time: only compaction reads one, and only an indexed
// log is long enough to be compacted, so the index keeps the times
// (decidedIndex.at). The summary sits at the tail: a summary write
// (summaryTail) rewrites only bytes past end, and an entry's add moves
// only the summary up behind it, so entry offsets, index positions and
// decidedIndex.head never shift, and a settle costs the same on a log
// of any length. Every scan stops at end; both compactions carry the
// summary along. The leader's learned log is the same type with no
// summary (end is len(buf)).
//
// A settled option costs its packed bytes and nothing else: no slot,
// no pointer, no string of its own. The zero value is an empty log, so
// a record that never settles anything pays for a nil slice and a nil
// pointer. Most records hold a handful of entries, which get scans
// comparing sequences and lane names in place; a log that reaches
// decidedIndexMin entries also answers from an index keyed by a 64-bit
// hash of the id, because a hot commutative key holds thousands.
type decidedLog struct {
	buf []byte
	idx *decidedIndex // nil below decidedIndexMin entries
	// end is the boundary between the entries and the summary.
	end uint32
	// n is the entry count while the log is unindexed; once indexed,
	// idx.n holds it (and n reads 0).
	n uint8
	// kind is the update class lock of the record whose log this is
	// (recState, noteKind). It lives here, in what would be the
	// struct's padding, so that a record's state is 48 bytes; a
	// leader's learned log leaves it 0.
	kind record.UpdateKind
}

// decidedIndex is what only a long log keeps beside its entries.
type decidedIndex struct {
	// n is the number of entries.
	n int
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
	// at is each entry's settle time (UnixNano), in settle order; those
	// settled before the index was built age from the build, never less.
	at []int64
	// peers is the last summary learned from each peer replica, packed
	// against the node's lane table: compact releases an entry only once
	// every peer's contains it. It is noted only while the log is longer
	// than decidedLimit, the only length compaction looks at. Summaries
	// are monotone per replica, so a stale or missing one only delays a
	// release.
	peers map[transport.NodeID]packedLineage
}

const (
	// decidedLimit is the length past which a log is worth compacting.
	decidedLimit            = 512
	defaultDecidedRetention = 2 * time.Minute
	// decidedIndexMin is the length at which a log builds its lookup
	// index: below it a scan comparing ids in place beats hashing one
	// and costs no map per record.
	decidedIndexMin = 32
	// decidedFitMax is the size up to which a log's buffer grows to fit
	// each new entry or summary write (growBuf): most records settle a
	// few dozen options at most,
	// and slack on each of them would be paid by every replica. Past it
	// (some 250 ordinary entries of about sixteen bytes) the buffer grows
	// geometrically, so a hot key's settle stays O(1) amortized. An
	// indexed log's times grow in the buffer's proportion (add).
	decidedFitMax = 4 << 10
)

// The up tags of a packed decision.
const (
	upNone   = 0 // no contents (HasUp false)
	upKeyed  = 1 // the update as encoded
	upElided = 2 // the update less its key, which is the record's
)

// decidedSeed keys the index hash of ids kept whole. Lookups compare
// the ids behind every hit, so the seed changes no answer, only which
// ids collide.
var decidedSeed = maphash.MakeSeed()

// decidedID is a transaction id as a decided log keys it: its lane and
// sequence when the id is lane#seq with seq in canonical decimal (what
// every coordinator mints, see Coordinator.txID), else only the
// whole id. The split is a function of the id, so an id has one stored
// form and a lookup compares like with like.
type decidedID struct {
	tx     string
	lane   string
	seq    uint64
	packed bool
}

// parseID splits tx in place: it allocates nothing.
func parseID(tx TxID) decidedID {
	s := string(tx)
	id := decidedID{tx: s}
	i := strings.LastIndexByte(s, '#')
	digits := s[i+1:]
	if i <= 0 || digits == "" || (digits[0] == '0' && len(digits) > 1) {
		return id
	}
	var seq uint64
	for j := 0; j < len(digits); j++ {
		c := uint64(digits[j] - '0')
		if c > 9 || seq > (math.MaxUint64-c)/10 {
			return id
		}
		seq = seq*10 + c
	}
	id.lane, id.seq, id.packed = s[:i], seq, true
	return id
}

// append writes the id part of a packed decision, numbering its lane
// in t if the lane is new.
func (id decidedID) append(b []byte, t *laneTable) []byte {
	if !id.packed {
		return transport.AppendString(append(b, 0), id.tx)
	}
	b = transport.AppendUvarint(b, uint64(t.id(id.lane))+1)
	return transport.AppendUvarint(b, id.seq)
}

// hash is the index key of id, and false when t has never numbered its
// lane (so no entry can hold it).
func (id decidedID) hash(t *laneTable) (uint64, bool) {
	if !id.packed {
		return maphash.String(decidedSeed, id.tx), true
	}
	lane, ok := t.ids[id.lane]
	return laneSeqHash(uint64(lane)+1, id.seq), ok
}

// storedID is an entry's id part as the log holds it: tag is the
// lane's index plus one, or 0 for an id kept whole, whose bytes are tx.
type storedID struct {
	tag, seq uint64
	tx       []byte
}

// is reports whether the stored id is id.
func (s storedID) is(t *laneTable, id decidedID) bool {
	if s.tag == 0 {
		return !id.packed && string(s.tx) == id.tx
	}
	return id.packed && s.seq == id.seq && t.names[s.tag-1] == id.lane
}

// hash is the index key of the stored id (decidedID.hash).
func (s storedID) hash() uint64 {
	if s.tag == 0 {
		return maphash.Bytes(decidedSeed, s.tx)
	}
	return laneSeqHash(s.tag, s.seq)
}

// laneSeqHash keys a packed id. For one lane it is injective in the
// sequence; the map hashes it again, and a collision only costs a scan.
func laneSeqHash(tag, seq uint64) uint64 {
	return seq*0x9e3779b97f4a7c15 ^ tag*0xc2b2ae3d27d4eb4f
}

// decidedEntry is one entry of a decided log read in place — the
// decision's fields and the table and record key it is packed against —
// and the decoded view the cold readers take: recovery replies, grafts
// and checkpoints. Nothing is copied (id and up alias the log), so
// a view is good until the log next changes; what outlives that is
// decoded (option, update) or expanded (appendBody).
type decidedEntry struct {
	tab      *laneTable
	key      record.Key
	id       storedID
	up       []byte // the update as packed; nil: contents never known (HasUp false)
	elided   bool   // up is upElided's: the kind, then the update after its key
	KeySeq   uint64
	Decision Decision
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

// packDecision appends the packed decision of id settled as d on the
// record key; up is record.AppendUpdate output, nil without contents.
func packDecision(b []byte, t *laneTable, key record.Key, id decidedID, d Decision, keySeq uint64, up []byte) []byte {
	b = id.append(b, t)
	b = append(b, uint8(d))
	b = transport.AppendUvarint(b, keySeq)
	if up == nil {
		return append(b, upNone)
	}
	n, k := binary.Uvarint(up[1:])
	if after := 1 + k + int(n); string(up[1+k:after]) == string(key) {
		return append(append(b, upElided, up[0]), up[after:]...)
	}
	return append(append(b, upKeyed), up...)
}

// kind is the update's kind (its encoding's first byte, kept first
// when the key is elided), 0 without contents: adoptBase's
// physical-containment rule scans it undecoded.
func (e *decidedEntry) kind() record.UpdateKind {
	if e.up == nil {
		return 0
	}
	return record.UpdateKind(e.up[0])
}

// lane is the entry's coordinator lane (laneOf); an id kept whole
// pays for a string.
func (e *decidedEntry) lane() string {
	if e.id.tag == 0 {
		return laneOf(TxID(e.id.tx))
	}
	return e.tab.names[e.id.tag-1]
}

// appendTx appends the bytes of the entry's transaction id.
func (e *decidedEntry) appendTx(b []byte) []byte {
	if e.id.tag == 0 {
		return append(b, e.id.tx...)
	}
	return strconv.AppendUint(append(append(b, e.lane()...), '#'), e.id.seq, 10)
}

// tx rebuilds the entry's transaction id.
func (e *decidedEntry) tx() TxID {
	var scratch [64]byte
	return TxID(e.appendTx(scratch[:0]))
}

// appendUpdate appends the update's record.AppendUpdate encoding, the
// key put back where it was elided.
func (e *decidedEntry) appendUpdate(b []byte) []byte {
	if !e.elided {
		return append(b, e.up...)
	}
	b = transport.AppendString(append(b, e.up[0]), string(e.key))
	return append(b, e.up[1:]...)
}

// appendBody appends the entry's oplog decision body, byte for byte
// what appendDecision wrote for it: what the 0xD2 record and a
// checkpoint carry.
func (e *decidedEntry) appendBody(b []byte) []byte {
	var scratch [64]byte
	b = transport.AppendBytes(b, e.appendTx(scratch[:0]))
	b = append(b, uint8(e.Decision))
	b = transport.AppendUvarint(b, e.KeySeq)
	b = transport.AppendBool(b, e.up != nil)
	if e.up == nil {
		return b
	}
	return e.appendUpdate(b)
}

// update decodes the retained contents. The bytes are this process's
// own record.AppendUpdate output, so decoding cannot fail.
func (e *decidedEntry) update() record.Update {
	up := e.up
	if e.elided {
		var scratch [256]byte
		up = e.appendUpdate(scratch[:0])
	}
	return record.ReadUpdate(transport.NewWireReader(up))
}

// option rebuilds what the entry retains of its option — Tx, Update
// and KeySeq, all a visibility message needs — and whether it has
// contents at all.
func (e *decidedEntry) option() (Option, bool) {
	if e.up == nil {
		return Option{}, false
	}
	return Option{Tx: e.tx(), Update: e.update(), KeySeq: e.KeySeq}, true
}

// len is the number of entries.
func (l *decidedLog) len() int {
	if l.idx != nil {
		return l.idx.n
	}
	return int(l.n)
}

// summary is the record's packed lineage summary, the bytes behind the
// entries.
func (l *decidedLog) summary() packedLineage { return packedLineage(l.buf[l.end:]) }

// tail is the writer of the record's summary. It is good until the next
// entry is added or compacted away.
func (l *decidedLog) tail() summaryTail { return summaryTail{buf: &l.buf, at: int(l.end)} }

// uvarintAt decodes the uvarint at b[i:] and returns the offset past
// it. Nearly every one a lookup reads is a single byte, which it
// decodes itself.
func uvarintAt(b []byte, i int) (uint64, int) {
	if c := b[i]; c < 0x80 {
		return uint64(c), i + 1
	}
	v, k := binary.Uvarint(b[i:])
	return v, i + k
}

// idAt reads the id of the entry at offset off of buf, in place: all a
// lookup reads. It returns the offset of the fields after the id and
// the next entry's; a scan is this function in a loop.
func (l *decidedLog) idAt(off int) (id storedID, rest, next int) {
	n, i := uvarintAt(l.buf, off)
	next = i + int(n)
	id.tag, i = uvarintAt(l.buf, i)
	if id.tag == 0 {
		m, j := uvarintAt(l.buf, i)
		id.tx = l.buf[j : j+int(m)]
		return id, j + int(m), next
	}
	id.seq, rest = uvarintAt(l.buf, i)
	return id, rest, next
}

// at reads the entry at offset off of buf and returns the next one's.
func (l *decidedLog) at(t *laneTable, key record.Key, off int) (decidedEntry, int) {
	id, i, next := l.idAt(off)
	e := decidedEntry{tab: t, key: key, id: id, Decision: Decision(l.buf[i])}
	e.KeySeq, i = uvarintAt(l.buf, i+1)
	if tag := l.buf[i]; tag != upNone {
		e.up, e.elided = l.buf[i+1:next], tag == upElided
	}
	return e, next
}

// each calls fn on the entries in settle order until it returns false.
// Views are passed by value, so a walk allocates nothing.
func (l *decidedLog) each(t *laneTable, key record.Key, fn func(e decidedEntry) bool) {
	for off := 0; off < int(l.end); {
		e, next := l.at(t, key, off)
		if !fn(e) {
			return
		}
		off = next
	}
}

// find returns the offset in buf of id's entry, -1 if absent.
func (l *decidedLog) find(t *laneTable, id decidedID) int {
	if l.idx != nil {
		h, numbered := id.hash(t)
		pos, ok := l.idx.pos[h]
		if !numbered || !ok {
			return -1
		}
		if pos >= 0 {
			off := pos - l.idx.head
			if got, _, _ := l.idAt(off); !got.is(t, id) {
				return -1 // the one entry with this hash is another's
			}
			return off
		}
		// Two transactions have shared the hash: scan.
	}
	for off := 0; off < int(l.end); {
		got, _, next := l.idAt(off)
		if got.is(t, id) {
			return off
		}
		off = next
	}
	return -1
}

// get looks up a decision.
func (l *decidedLog) get(t *laneTable, tx TxID) (Decision, bool) {
	if off := l.find(t, parseID(tx)); off >= 0 {
		_, rest, _ := l.idAt(off)
		return Decision(l.buf[rest]), true
	}
	return DecUnknown, false
}

// entry looks up the settled entry of tx on the record key (only
// recovery asks).
func (l *decidedLog) entry(t *laneTable, key record.Key, tx TxID) (decidedEntry, bool) {
	if off := l.find(t, parseID(tx)); off >= 0 {
		e, _ := l.at(t, key, off)
		return e, true
	}
	return decidedEntry{}, false
}

// record stores opt's final decision d on the record key, settled at
// now (first write wins: decisions are immutable once made). Without
// contents (hasOpt false) only the transaction and decision are kept.
// It reports whether the entry was new (false for already-known
// decisions), so callers persist each decision exactly once, and
// returns the entry as the log holds it, valid until the log next
// changes. Eviction is the caller's concern (compactLegacy /
// StorageNode.compactDecided).
func (l *decidedLog) record(t *laneTable, key record.Key, d Decision, opt Option, hasOpt bool, now time.Time) (decidedEntry, bool) {
	id := parseID(opt.Tx)
	if l.find(t, id) >= 0 {
		return decidedEntry{}, false
	}
	var up []byte
	var keySeq uint64
	var upScratch [256]byte // on the stack; covers all but blob-carrying updates
	if hasOpt {
		up, keySeq = record.AppendUpdate(upScratch[:0], opt.Update), opt.KeySeq
	}
	var scratch [256]byte
	e, _ := l.at(t, key, l.add(now.UnixNano(), packDecision(scratch[:0], t, key, id, d, keySeq, up)))
	return e, true
}

// restore stores a replayed decision body of the record key, packed, at
// replay clock now, unless its transaction is already known, and
// returns the entry and whether it did. Every body it sees was built by
// appendDecision in this process (replay re-encodes what it decodes),
// so it cannot be malformed.
func (l *decidedLog) restore(t *laneTable, key record.Key, now int64, body []byte) (decidedEntry, bool) {
	tx, d, keySeq, up := splitBody(body)
	id := parseID(TxID(tx))
	if l.find(t, id) >= 0 {
		return decidedEntry{}, false
	}
	var scratch [256]byte
	e, _ := l.at(t, key, l.add(now, packDecision(scratch[:0], t, key, id, d, keySeq, up)))
	return e, true
}

// splitBody splits a decision body appendDecision wrote, in place, into
// its transaction id, decision, lineage sequence and update encoding
// (nil without contents).
func splitBody(body []byte) (tx []byte, d Decision, keySeq uint64, up []byte) {
	n, k := binary.Uvarint(body)
	tx, rest := body[k:k+int(n)], body[k+int(n):]
	keySeq, k = binary.Uvarint(rest[1:])
	if rest[1+k] != 0 {
		up = rest[2+k:]
	}
	return tx, Decision(rest[0]), keySeq, up
}

// add appends a packed decision, settled at now, whose transaction the
// log does not hold and returns the entry's offset in buf. The summary
// moves up behind it.
func (l *decidedLog) add(now int64, packed []byte) int {
	var hdr [binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(hdr[:0], uint64(len(packed)))
	off, k := int(l.end), len(h)+len(packed)
	buf := growBuf(l.buf, k)
	l.buf = buf[:len(buf)+k]
	copy(l.buf[off+k:], l.buf[off:])
	copy(l.buf[off:], h)
	copy(l.buf[off+len(h):], packed)
	l.end += uint32(k)
	if x := l.idx; x != nil {
		x.n++
		id, _, _ := l.idAt(off)
		x.file(id.hash(), x.head+off)
		if len(x.at) == cap(x.at) { // the buffer's slack; none while it fits
			x.at = append(make([]int64, 0, len(x.at)*cap(l.buf)/len(l.buf)+1), x.at...)
		}
		x.at = append(x.at, now)
	} else if l.n++; l.n >= decidedIndexMin {
		l.reindex()
		l.idx.at = make([]int64, l.idx.n)
		for i := range l.idx.at {
			l.idx.at[i] = now
		}
	}
	return off
}

// growBuf returns b with room for k more bytes past its length: in an
// array of exactly that size while it stays within decidedFitMax, with
// geometric growth past it. Both a decided log's entries and its summary
// grow through it.
func growBuf(b []byte, k int) []byte {
	switch need := len(b) + k; {
	case need <= cap(b):
		return b
	case need <= decidedFitMax:
		return append(make([]byte, 0, need), b...)
	}
	return slices.Grow(b, k)
}

// file enters the entry whose id hashes to h at position pos.
func (x *decidedIndex) file(h uint64, pos int) {
	if _, shared := x.pos[h]; shared {
		pos = -1
	}
	x.pos[h] = pos
}

// reindex rebuilds the lookup index from the entries, keeping their
// times, or drops both when the log is short again.
func (l *decidedLog) reindex() {
	old, n := l.idx, l.len()
	l.idx, l.n = nil, 0
	if n < decidedIndexMin {
		l.n = uint8(n)
		return
	}
	l.idx = &decidedIndex{n: n, pos: make(map[uint64]int, n)}
	if old != nil {
		l.idx.lastCompactLen, l.idx.peers, l.idx.at = old.lastCompactLen, old.peers, old.at
	}
	for off := 0; off < int(l.end); {
		id, _, next := l.idAt(off)
		l.idx.file(id.hash(), off)
		off = next
	}
}

// compactLegacy applies the pre-lineage eviction rule (count cap +
// age gate, oldest first); used by the leader's learned log, which
// has no summary backing it. The dropped entries leave the index one
// by one and buf is resliced past them, so a pass costs what it drops
// and a summary behind them stays where it is.
func (l *decidedLog) compactLegacy(now time.Time, retention time.Duration) {
	horizon := now.Add(-retention).UnixNano()
	off, dropped := 0, 0
	for ; l.len() > decidedLimit && l.idx.at[dropped] <= horizon; dropped++ {
		id, _, next := l.idAt(off)
		if h := id.hash(); l.idx.pos[h] == l.idx.head+off {
			delete(l.idx.pos, h)
		}
		off = next
		l.idx.n--
	}
	// The dropped bytes and times hold no pointers; the backing arrays
	// shed them when they next grow.
	if off > 0 {
		x := l.idx
		l.buf, l.end, x.head, x.at = l.buf[off:], l.end-uint32(off), x.head+off, x.at[dropped:]
	}
}

// wantsCompact reports whether the log has doubled past
// max(decidedLimit, size after the last pass) — the amortization that
// keeps per-settle compaction O(1) even when nothing is releasable
// (the periodic sweep additionally forces passes on over-limit logs,
// so a log whose entries become releasable later still shrinks).
func (l *decidedLog) wantsCompact() bool {
	return l.idx != nil && l.idx.n >= 2*max(decidedLimit, l.idx.lastCompactLen)
}

// notePeer folds peer replica from's summary s into the one the log
// keeps for it, if the log is long enough to be compacted.
func (l *decidedLog) notePeer(t *laneTable, from transport.NodeID, s LineageSummary) {
	if l.len() <= decidedLimit {
		return
	}
	if l.idx.peers == nil {
		l.idx.peers = make(map[transport.NodeID]packedLineage, 4)
	}
	p := l.idx.peers[from]
	p.tail().union(t, s)
	l.idx.peers[from] = p
}

// compact releases evictable entries: aged past retention and either
// legacy (KeySeq 0) or contained in the noted summary of every one of
// the record's replicas but self; an unindexed log holds no times and
// releases none. The kept entries and their times move up in place, and
// the summary up behind them. Returns how many entries were released.
func (l *decidedLog) compact(t *laneTable, key record.Key, now time.Time, retention time.Duration,
	self transport.NodeID, replicas []transport.NodeID) int {
	x := l.idx
	if x == nil {
		return 0
	}
	horizon := now.Add(-retention).UnixNano()
	acked := func(e *decidedEntry) bool {
		for _, p := range replicas {
			if p != self && !x.peers[p].contains(t, e.lane(), e.KeySeq) {
				return false
			}
		}
		return true
	}
	evicted := l.retain(func(off, i int) bool {
		e, _ := l.at(t, key, off)
		return !(x.at[i] <= horizon && (e.KeySeq == 0 || acked(&e)))
	})
	if l.idx != nil {
		l.idx.lastCompactLen = l.idx.n
	}
	return evicted
}

// retain keeps the entries keep approves — it is passed each one's
// offset in buf and its place in settle order — and returns how many
// went. The kept entries and their times move up in place, and the
// summary up behind them.
func (l *decidedLog) retain(keep func(off, i int) bool) int {
	x, before := l.idx, l.len()
	w, kept := 0, 0
	for i, off := 0, 0; off < int(l.end); i++ {
		_, _, next := l.idAt(off)
		if keep(off, i) {
			w += copy(l.buf[w:], l.buf[off:next])
			if x != nil {
				x.at[kept] = x.at[i]
			}
			kept++
		}
		off = next
	}
	sum := copy(l.buf[w:], l.buf[l.end:])
	l.buf, l.end = l.buf[:w+sum], uint32(w)
	if x != nil {
		x.at, x.n = x.at[:kept], kept
	} else {
		l.n = uint8(kept)
	}
	if kept < before {
		l.reindex()
	}
	return before - kept
}

// lockPhysical locks the log's record physical and drops every entry
// with a lineage identity (KeySeq > 0), then moves what is left into an
// array of exactly its size: on a physical record that is the summary
// alone. A committed physical write carries its read version, so it
// supersedes every lower version and is never grafted onto another
// base (adoptBase); the summary answers every settled lookup of such an
// option (StorageNode.settled) and recovery answers it without contents
// (onRecoverOpt). So once the class is physical, the entries are a
// cache nothing reads, and settleOption adds none.
func (l *decidedLog) lockPhysical() {
	l.kind = record.KindPhysical
	if l.end == 0 {
		return
	}
	l.retain(func(off, _ int) bool {
		_, rest, _ := l.idAt(off)
		keySeq, _ := uvarintAt(l.buf, rest+1)
		return keySeq == 0
	})
	buf := make([]byte, len(l.buf))
	copy(buf, l.buf)
	l.buf = buf
}

// footprint is what the log holds: its entries and its buffer's bytes,
// summary included (the DecidedEntries and DecidedBytes gauges).
type footprint struct{ entries, bytes int64 }

func (l *decidedLog) footprint() footprint {
	return footprint{int64(l.len()), int64(cap(l.buf))}
}
