package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"mdcc/internal/transport"
)

// Lineage summaries: the exact, compact, retention-free answer to
// "does this committed base already contain the effect of option X?".
//
// MDCC's commutative path lets replicas apply the same committed
// deltas in different orders, so two replicas at the same version can
// hold different applied subsets (a fork). Merging forks used to
// require shipping recently-decided options *with contents* and
// hoping the retention window still covered the divergence
// (DESIGN.md §5's documented safety limitation). A LineageSummary
// replaces the time window with exact bookkeeping:
//
//   - Every option carries a lineage identity: its coordinator lane
//     (the TxID prefix — one lane per coordinator incarnation) and a
//     per-(lane, key) contiguous sequence number (Option.KeySeq),
//     minted at proposal time.
//   - Each record keeps, per lane, the interval set of settled
//     sequence numbers (Done) plus the subset that settled as rejects
//     (Rejected). Because a lane's sequence numbers for one key are
//     contiguous by construction and every proposal eventually
//     settles, Done compacts to a single [1..W] watermark interval
//     per lane at quiescence; exceptions exist only while outcomes
//     are in flight. Rejected stays exact forever (recovery needs the
//     accept/reject split, see onRecoverOpt) and compresses storms of
//     consecutive rejections into single ranges.
//   - Deltas records whether the branch has ever applied a
//     commutative update — the bit adoptBase's physical-containment
//     rule needs (see acceptor.go).
//
// "Summary s contains option X" is then exact set membership, valid
// forever: retention of option *contents* in the decided log becomes
// a cache-eviction knob (see decidedLog), never a correctness input.
//
// Representation invariants (everything below maintains them):
// lanes sorted by name; ranges sorted, disjoint, non-adjacent
// (canonical — two replicas that settled the same set render the
// same summary, which is what makes summary equality a convergence
// proof); Rejected ⊆ Done per lane. A coordinator mints sequences from
// 1, so 0 appears only where a hand-built option named it; it is an
// ordinary sequence, not a sentinel.

// SeqRange is an inclusive range of per-lane sequence numbers.
type SeqRange struct{ Lo, Hi uint64 }

// LaneLineage is one coordinator lane's settled set for one record.
type LaneLineage struct {
	Lane     string
	Done     []SeqRange // every settled sequence (accepts and rejects)
	Rejected []SeqRange // the subset that settled as rejects
}

// LineageSummary is a record's exact applied-option summary in the
// form messages, the disk and tests exchange. A storage node keeps each
// record's packed (packedLineage).
type LineageSummary struct {
	Lanes []LaneLineage
	// Deltas reports whether this branch contains at least one applied
	// commutative update. adoptBase uses it to decide whether a higher
	// incoming version proves supersession of local physical applies
	// (pure-physical version chains do; delta-inflated versions do
	// not).
	Deltas bool
	// Physical mirrors Deltas for non-creating physical rewrites
	// (inserts are class-neutral). Together the two bits let replicas
	// that learned a key wholesale — base adoption, WAL replay of a
	// snapshot — reconstruct the kind-disjoint class lock without
	// having voted on or applied any update themselves.
	Physical bool
}

// laneOf derives an option's coordinator lane from its transaction
// id: everything before the final '#' (see Coordinator.setLane: the
// prefix names the coordinator, its incarnation and its lane era).
func laneOf(tx TxID) string {
	s := string(tx)
	if i := strings.LastIndexByte(s, '#'); i >= 0 {
		return s[:i]
	}
	return s
}

// addRange inserts seq into a canonical range slice, merging
// neighbors. Returns the updated slice and whether it changed.
func addRange(rs []SeqRange, seq uint64) ([]SeqRange, bool) {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi+1 >= seq })
	if i < len(rs) && rs[i].Lo <= seq && seq <= rs[i].Hi {
		return rs, false // already present
	}
	switch {
	case i < len(rs) && rs[i].Lo == seq+1:
		// Extends rs[i] downward; may bridge to rs[i-1].
		rs[i].Lo = seq
		if i > 0 && rs[i-1].Hi+1 == seq {
			rs[i-1].Hi = rs[i].Hi
			rs = append(rs[:i], rs[i+1:]...)
		}
	case i < len(rs) && rs[i].Hi+1 == seq:
		// Extends rs[i] upward; may bridge to rs[i+1].
		rs[i].Hi = seq
		if i+1 < len(rs) && rs[i+1].Lo == seq+1 {
			rs[i].Hi = rs[i+1].Hi
			rs = append(rs[:i+1], rs[i+2:]...)
		}
	default:
		rs = append(rs, SeqRange{})
		copy(rs[i+1:], rs[i:])
		rs[i] = SeqRange{Lo: seq, Hi: seq}
	}
	return rs, true
}

// rangeContains reports membership in a canonical range slice.
func rangeContains(rs []SeqRange, seq uint64) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= seq })
	return i < len(rs) && rs[i].Lo <= seq
}

// rangeUnion merges canonical b into canonical a.
func rangeUnion(a, b []SeqRange) []SeqRange {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]SeqRange(nil), b...)
	}
	merged := make([]SeqRange, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].Lo < merged[j].Lo })
	out := merged[:1]
	for _, r := range merged[1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi+1 && last.Hi+1 != 0 { // overlap or adjacency
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// rangeSubset reports a ⊆ b for canonical range slices.
func rangeSubset(a, b []SeqRange) bool {
	for _, r := range a {
		if !rangeCovers(b, r.Lo, r.Hi) {
			return false
		}
	}
	return true
}

// rangeCovers reports [lo, hi] ⊆ rs for a canonical range slice.
func rangeCovers(rs []SeqRange, lo, hi uint64) bool {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= lo })
	return i < len(rs) && rs[i].Lo <= lo && rs[i].Hi >= hi
}

// acceptedWithin reports whether every sequence of done outside rej (a
// lane's accepted options: rej ⊆ done, both canonical) is in theirs.
func acceptedWithin(done, rej, theirs []SeqRange) bool {
	j := 0
	for _, d := range done {
		lo := d.Lo
		for ; j < len(rej) && rej[j].Lo <= d.Hi; j++ {
			if rej[j].Lo > lo && !rangeCovers(theirs, lo, rej[j].Lo-1) {
				return false
			}
			lo = rej[j].Hi + 1
		}
		if lo <= d.Hi && !rangeCovers(theirs, lo, d.Hi) {
			return false
		}
	}
	return true
}

// lane returns the lane entry (nil if absent).
func (s LineageSummary) lane(lane string) *LaneLineage {
	i := sort.Search(len(s.Lanes), func(i int) bool { return s.Lanes[i].Lane >= lane })
	if i < len(s.Lanes) && s.Lanes[i].Lane == lane {
		return &s.Lanes[i]
	}
	return nil
}

// Contains reports whether (lane, seq) settled in this summary.
func (s LineageSummary) Contains(lane string, seq uint64) bool {
	l := s.lane(lane)
	return l != nil && rangeContains(l.Done, seq)
}

// Decision answers a recovery query: the final decision of
// (lane, seq), and whether this summary knows it. Decisions are
// globally consistent (one final outcome per option), so "settled and
// not rejected" is exactly "accepted".
func (s LineageSummary) Decision(lane string, seq uint64) (Decision, bool) {
	l := s.lane(lane)
	if l == nil || !rangeContains(l.Done, seq) {
		return DecUnknown, false
	}
	if rangeContains(l.Rejected, seq) {
		return DecReject, true
	}
	return DecAccept, true
}

// String renders the canonical fingerprint, e.g.
// "Δ{c0:[1-7 9]!:[4];c1:[1-3]}". Summaries are kept canonical, so two
// render identically exactly when they have settled identical option
// sets — the exact-convergence predicate, and the form in which
// packages that must not import core's types compare them.
func (s LineageSummary) String() string {
	var b strings.Builder
	if s.Deltas {
		b.WriteString("Δ")
	}
	if s.Physical {
		b.WriteString("Φ")
	}
	b.WriteByte('{')
	for i, l := range s.Lanes {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(l.Lane)
		b.WriteByte(':')
		writeRanges(&b, l.Done)
		if len(l.Rejected) > 0 {
			b.WriteString("!:")
			writeRanges(&b, l.Rejected)
		}
	}
	b.WriteByte('}')
	return b.String()
}

func writeRanges(b *strings.Builder, rs []SeqRange) {
	b.WriteByte('[')
	for i, r := range rs {
		if i > 0 {
			b.WriteByte(' ')
		}
		if r.Lo == r.Hi {
			fmt.Fprintf(b, "%d", r.Lo)
		} else {
			fmt.Fprintf(b, "%d-%d", r.Lo, r.Hi)
		}
	}
	b.WriteByte(']')
}

// laneTable numbers the coordinator lanes a storage node's packed
// summaries and decided logs name, so a record holds a lane as a
// one-byte index instead of a string. Each name is the table's own
// copy: a lane named by a substring of a transaction id would keep the
// whole id alive. The table grows only with coordinator incarnations
// (and their lane eras), never per record or per option, and it never
// shrinks: the summaries name their lanes forever. The zero value is
// an empty table.
type laneTable struct {
	ids   map[string]uint32
	names []string
}

// id returns lane's index, numbering it if it is new.
func (t *laneTable) id(lane string) uint32 {
	if id, ok := t.ids[lane]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[string]uint32)
	}
	name := strings.Clone(lane) // lane itself never escapes: a lookup's probe stays on the stack
	id := uint32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// packedLineage is a record's LineageSummary as a storage node keeps
// it: appendLineage's layout, except that a lane is its uvarint index
// in the node's laneTable instead of its name,
//
//	uvarint n | n × (uvarint lane | ranges Done | ranges Rejected) |
//	bool Deltas | bool Physical
//
// with the lanes in name order, so unpacking yields the canonical
// summary. No bytes are the empty summary with neither class bit. It is
// the read view: reads scan the bytes in place. Writes go through a
// summaryTail, because a record's summary is not a slice of its own
// but the tail of its decided log's buffer (decidedLog.summary); only a
// peer's summary (decidedIndex.peers) and a test's stand alone.
type packedLineage []byte

// summaryTail writes the packed summary that ends *buf, from offset at
// on: a record's, behind its decided entries (decidedLog.tail), or one
// that stands alone (packedLineage.tail). add, union and mark rewrite
// only the summary's bytes: in place when the result fits the array,
// else into a new one that also carries buf[:at] over, grown as a
// decided log grows (growBuf). A tail is good until the bytes before it
// next change length.
type summaryTail struct {
	buf *[]byte
	at  int
}

// tail is the writer of a summary that stands alone.
func (p *packedLineage) tail() summaryTail { return summaryTail{buf: (*[]byte)(p)} }

// view is the summary as it reads.
func (s summaryTail) view() packedLineage { return packedLineage((*s.buf)[s.at:]) }

// packedLane is one lane's entry of a packed summary: the bytes it
// spans, or where it would go when absent (at == end), and its ranges,
// decoded onto the caller's buffers.
type packedLane struct {
	at, end   int
	found     bool
	id        uint32
	done, rej []SeqRange
}

// emptyPacked is what an empty summary reads as; splice never writes
// it.
var emptyPacked = packedLineage{0, 0, 0}

// lane finds lane's entry, decoding its ranges onto done and rej
// (stack buffers at the callers: a lookup allocates nothing).
func (p packedLineage) lane(t *laneTable, lane string, done, rej []SeqRange) packedLane {
	if len(p) == 0 {
		return packedLane{at: 1, end: 1}
	}
	r := transport.NewWireReader(p)
	n := r.Count("lane")
	for i := 0; i < n; i++ {
		at := len(p) - r.Len()
		id := uint32(r.Uvarint())
		switch name := t.names[id]; {
		case name == lane:
			l := packedLane{at: at, found: true, id: id}
			l.done = readRanges(r, done)
			l.rej = readRanges(r, rej)
			l.end = len(p) - r.Len()
			return l
		case name > lane:
			return packedLane{at: at, end: at}
		}
		skipRanges(r)
		skipRanges(r)
	}
	at := len(p) - r.Len()
	return packedLane{at: at, end: at}
}

func skipRanges(r *transport.WireReader) {
	for n := 2 * r.Count("range"); n > 0; n-- {
		r.Uvarint()
	}
}

// isEmpty reports a summary with no lanes (LineageSummary's IsEmpty).
func (p packedLineage) isEmpty() bool { return len(p) == 0 || p[0] == 0 }

// bits returns the class bits.
func (p packedLineage) bits() (deltas, physical bool) {
	if len(p) == 0 {
		return false, false
	}
	return p[len(p)-2] != 0, p[len(p)-1] != 0
}

// mark sets the class bits given (it never clears one).
func (s summaryTail) mark(deltas, physical bool) {
	if !deltas && !physical {
		return
	}
	if len(*s.buf) == s.at {
		s.splice(1, 1, nil, false) // the empty summary, written out
	}
	b := *s.buf
	if deltas {
		b[len(b)-2] = 1
	}
	if physical {
		b[len(b)-1] = 1
	}
}

// contains is LineageSummary.Contains.
func (p packedLineage) contains(t *laneTable, lane string, seq uint64) bool {
	var db, rb [4]SeqRange
	l := p.lane(t, lane, db[:0], rb[:0])
	return l.found && rangeContains(l.done, seq)
}

// decision is LineageSummary.Decision.
func (p packedLineage) decision(t *laneTable, lane string, seq uint64) (Decision, bool) {
	var db, rb [4]SeqRange
	l := p.lane(t, lane, db[:0], rb[:0])
	switch {
	case !l.found || !rangeContains(l.done, seq):
		return DecUnknown, false
	case rangeContains(l.rej, seq):
		return DecReject, true
	}
	return DecAccept, true
}

// containsAll is LineageSummary.ContainsAll: o ⊆ p.
func (p packedLineage) containsAll(t *laneTable, o LineageSummary) bool {
	for i := range o.Lanes {
		ol := &o.Lanes[i]
		if len(ol.Done) == 0 {
			continue
		}
		var db, rb [4]SeqRange
		if l := p.lane(t, ol.Lane, db[:0], rb[:0]); !l.found || !rangeSubset(ol.Done, l.done) {
			return false
		}
	}
	return true
}

// acceptedOutside reports whether p holds an option settled as
// accepted that o lacks: adoptBase's physical-containment rule on a
// record whose class is locked physical.
func (p packedLineage) acceptedOutside(t *laneTable, o LineageSummary) bool {
	if len(p) == 0 {
		return false
	}
	r := transport.NewWireReader(p)
	for n := r.Count("lane"); n > 0; n-- {
		var db, rb [4]SeqRange
		name := t.names[r.Uvarint()]
		done, rej := readRanges(r, db[:0]), readRanges(r, rb[:0])
		var theirs []SeqRange
		if l := o.lane(name); l != nil {
			theirs = l.Done
		}
		if !acceptedWithin(done, rej, theirs) {
			return true
		}
	}
	return false
}

// add is LineageSummary.Add: it records one settled option and reports
// whether the settled set changed.
func (s summaryTail) add(t *laneTable, lane string, seq uint64, rejected, applied bool) bool {
	var db, rb [4]SeqRange
	l := s.view().lane(t, lane, db[:0], rb[:0])
	done, changed := addRange(l.done, seq)
	rej, rejChanged := l.rej, false
	if rejected {
		rej, rejChanged = addRange(rej, seq)
	}
	if changed || rejChanged {
		s.put(t, lane, l, done, rej)
	}
	s.mark(applied, false)
	return changed
}

// union is LineageSummary.Union: o's settled sets and class bits join
// the summary's.
func (s summaryTail) union(t *laneTable, o LineageSummary) {
	for i := range o.Lanes {
		ol := &o.Lanes[i]
		var db, rb [4]SeqRange
		l := s.view().lane(t, ol.Lane, db[:0], rb[:0])
		s.put(t, ol.Lane, l, rangeUnion(l.done, ol.Done), rangeUnion(l.rej, ol.Rejected))
	}
	s.mark(o.Deltas, o.Physical)
}

// unpack returns the summary as a LineageSummary of its own (Clone and
// String's source, and the checkpoint snapshot's).
func (p packedLineage) unpack(t *laneTable) LineageSummary {
	if len(p) == 0 {
		return LineageSummary{}
	}
	return readLineage(transport.NewWireReader(p), t)
}

// put writes lane's entry l with the ranges given.
func (s summaryTail) put(t *laneTable, lane string, l packedLane, done, rej []SeqRange) {
	id := l.id
	if !l.found {
		id = t.id(lane)
	}
	var eb [64]byte
	e := transport.AppendUvarint(eb[:0], uint64(id))
	e = appendRanges(e, done)
	e = appendRanges(e, rej)
	s.splice(l.at, l.end, e, !l.found)
}

// splice replaces the summary's bytes [at:end) with e, counting one
// lane more when grow is set. It rewrites them where they lie when the
// result fits the array (a settle that extends a watermark) and
// otherwise moves the buffer into a new array (growBuf).
func (s summaryTail) splice(at, end int, e []byte, grow bool) {
	p := s.view()
	if len(p) == 0 {
		p = emptyPacked
	}
	n, k := binary.Uvarint(p)
	if grow {
		n++
	}
	var hb [binary.MaxVarintLen64]byte
	h := binary.AppendUvarint(hb[:0], n)
	tail := len(p) - end
	size := len(h) + (at - k) + len(e) + tail
	buf := growBuf((*s.buf)[:s.at], size)
	buf = buf[:s.at+size]
	out := buf[s.at:]
	// In place the count never shrinks, so moving the tail first and the
	// lanes before the entry second never overwrites bytes still to move.
	copy(out[size-tail:], p[end:])
	copy(out[len(h):], p[k:at])
	copy(out[len(h)+at-k:], e)
	copy(out, h)
	*s.buf = buf
}
