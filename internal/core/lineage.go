package core

import (
	"fmt"
	"sort"
	"strings"
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
// proof); Rejected ⊆ Done per lane; sequence 0 never appears (0 is
// the "no lineage identity" sentinel on options).

// SeqRange is an inclusive range of per-lane sequence numbers.
type SeqRange struct{ Lo, Hi uint64 }

// LaneLineage is one coordinator lane's settled set for one record.
type LaneLineage struct {
	Lane     string
	Done     []SeqRange // every settled sequence (accepts and rejects)
	Rejected []SeqRange // the subset that settled as rejects
}

// LineageSummary is a record's exact applied-option summary.
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
		i := sort.Search(len(b), func(i int) bool { return b[i].Hi >= r.Lo })
		if i >= len(b) || b[i].Lo > r.Lo || b[i].Hi < r.Hi {
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

func (s *LineageSummary) laneOrNew(name string) *LaneLineage {
	i := sort.Search(len(s.Lanes), func(i int) bool { return s.Lanes[i].Lane >= name })
	if i < len(s.Lanes) && s.Lanes[i].Lane == name {
		return &s.Lanes[i]
	}
	s.Lanes = append(s.Lanes, LaneLineage{})
	copy(s.Lanes[i+1:], s.Lanes[i:])
	s.Lanes[i] = LaneLineage{Lane: name}
	return &s.Lanes[i]
}

// Add records one settled option. rejected marks reject outcomes;
// applied marks an executed commutative update (sets Deltas). Returns
// whether the summary changed (false for duplicates). seq 0 (no
// lineage identity) is ignored.
func (s *LineageSummary) Add(lane string, seq uint64, rejected, applied bool) bool {
	if seq == 0 {
		return false
	}
	l := s.laneOrNew(lane)
	done, changed := addRange(l.Done, seq)
	l.Done = done
	if rejected {
		l.Rejected, _ = addRange(l.Rejected, seq)
	}
	if applied {
		s.Deltas = true
	}
	return changed
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

// Union merges o into s (set union per lane; the class bits OR).
// Sound whenever the caller's committed value contains-or-supersedes
// every settled effect o reports (see StorageNode.adoptBase).
func (s *LineageSummary) Union(o LineageSummary) {
	for i := range o.Lanes {
		ol := &o.Lanes[i]
		l := s.laneOrNew(ol.Lane)
		l.Done = rangeUnion(l.Done, ol.Done)
		l.Rejected = rangeUnion(l.Rejected, ol.Rejected)
	}
	s.Deltas = s.Deltas || o.Deltas
	s.Physical = s.Physical || o.Physical
}

// ContainsAll reports o ⊆ s (every settled entry of o is settled in
// s; the Rejected split is implied by decision consistency).
func (s LineageSummary) ContainsAll(o LineageSummary) bool {
	for i := range o.Lanes {
		ol := &o.Lanes[i]
		l := s.lane(ol.Lane)
		if l == nil {
			if len(ol.Done) == 0 {
				continue
			}
			return false
		}
		if !rangeSubset(ol.Done, l.Done) {
			return false
		}
	}
	return true
}

// Clone deep-copies the summary.
func (s LineageSummary) Clone() LineageSummary {
	out := LineageSummary{Deltas: s.Deltas, Physical: s.Physical}
	if len(s.Lanes) > 0 {
		out.Lanes = make([]LaneLineage, len(s.Lanes))
		for i, l := range s.Lanes {
			out.Lanes[i] = LaneLineage{
				Lane:     l.Lane,
				Done:     append([]SeqRange(nil), l.Done...),
				Rejected: append([]SeqRange(nil), l.Rejected...),
			}
		}
	}
	return out
}

// IsEmpty reports a summary with no settled entries.
func (s LineageSummary) IsEmpty() bool { return len(s.Lanes) == 0 }

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
