package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mdcc/internal/record"
)

// The reference model. A storage node keeps every record's summary
// packed (packedLineage), so these LineageSummary methods have no
// production caller; they stay here as the specification the packed
// form is checked against, and as the tests' way to build summaries.

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

// Union merges o into s (set union per lane; the class bits OR).
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

// packedLanes are the lanes the equivalence checks draw from. Their
// first use numbers them in the lane table, so a record's lane indexes
// are not in name order; the last is never settled (a lookup miss).
var packedLanes = []string{"gw/us-west/c1~MG3X9K2A", "app/0", "gw/us-west/c0~e2", "c", "zz/never"}

// checkPackedMatchesReference drives the op sequence data encodes
// against a packed summary and the reference LineageSummary, and fails
// at the first answer they differ on. Each op is a few bytes: an Add
// (lane, sequence 0–13, rejected and applied bits), a Union of a
// summary built from the next bytes (adds, an empty lane, class bits),
// or a physical mark. Sequences are small so gaps open and merge.
func checkPackedMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	var (
		tab   laneTable
		p     packedLineage
		ref   LineageSummary
		probe LineageSummary // the last union's argument
	)
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lane := func(b byte) string { return packedLanes[int(b)%(len(packedLanes)-1)] }
	for step := 0; len(data) > 0; step++ {
		switch op := next(); op % 5 {
		case 0, 1, 2:
			l, seq, fl := lane(op/5), uint64(next()%14), next()
			got := p.tail().add(&tab, l, seq, fl&1 != 0, fl&2 != 0)
			if want := ref.Add(l, seq, fl&1 != 0, fl&2 != 0); got != want {
				t.Fatalf("step %d: add(%s, %d) reported %v, reference %v", step, l, seq, got, want)
			}
		case 3:
			var o LineageSummary
			for k := int(next() % 4); k > 0; k-- {
				b := next()
				o.Add(lane(b), uint64(b/5%14), b&0x80 != 0, false)
			}
			fl := next()
			if fl&4 != 0 {
				o.laneOrNew(lane(fl >> 3)) // a lane with nothing settled
			}
			o.Deltas, o.Physical = fl&1 != 0, fl&2 != 0
			p.tail().union(&tab, o)
			ref.Union(o)
			probe = o
		case 4:
			p.tail().mark(false, true)
			ref.Physical = true
		}
		comparePacked(t, step, &tab, p, ref, probe)
	}
}

func comparePacked(t *testing.T, step int, tab *laneTable, p packedLineage, ref, probe LineageSummary) {
	t.Helper()
	for _, l := range packedLanes {
		for seq := uint64(0); seq < 15; seq++ {
			if got, want := p.contains(tab, l, seq), ref.Contains(l, seq); got != want {
				t.Fatalf("step %d: contains(%s, %d) = %v, reference %v (%s)", step, l, seq, got, want, ref)
			}
			gd, gok := p.decision(tab, l, seq)
			if wd, wok := ref.Decision(l, seq); gd != wd || gok != wok {
				t.Fatalf("step %d: decision(%s, %d) = %v %v, reference %v %v (%s)", step, l, seq, gd, gok, wd, wok, ref)
			}
		}
	}
	grown := ref.Clone()
	grown.Add(packedLanes[0], 14, false, false)
	for _, o := range []LineageSummary{probe, ref, grown, {}} {
		if got, want := p.containsAll(tab, o), ref.ContainsAll(o); got != want {
			t.Fatalf("step %d: containsAll(%s) = %v, reference %v (%s)", step, o, got, want, ref)
		}
	}
	un := p.unpack(tab)
	if got, want := un.String(), ref.String(); got != want {
		t.Fatalf("step %d: packed renders %s, reference %s", step, got, want)
	}
	if !reflect.DeepEqual(un, ref) {
		t.Fatalf("step %d: unpacks to %#v, reference %#v", step, un, ref)
	}
	if p.isEmpty() != ref.IsEmpty() {
		t.Fatalf("step %d: isEmpty %v, reference %v", step, p.isEmpty(), ref.IsEmpty())
	}
	if d, ph := p.bits(); d != ref.Deltas || ph != ref.Physical {
		t.Fatalf("step %d: class bits %v %v, reference %v %v", step, d, ph, ref.Deltas, ref.Physical)
	}
}

// TestPackedLineageMatchesReference: over random op sequences on
// several lanes — rejects, gaps that later merge, sequence 0, unions
// with empty lanes — the packed summary answers every read exactly as
// the reference LineageSummary does, renders the same fingerprint and
// unpacks to it.
func TestPackedLineageMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 400; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkPackedMatchesReference(t, data)
	}
}

func FuzzPackedLineage(f *testing.F) {
	// Out-of-order settles on one lane, closing the gap.
	f.Add([]byte{0, 3, 0, 0, 1, 0, 0, 2, 0})
	// Rejects on two lanes, a duplicate, sequence 0.
	f.Add([]byte{5, 4, 1, 0, 4, 3, 10, 0, 2, 10, 0, 0})
	// A union with an empty lane and both class bits, then a mark.
	f.Add([]byte{0, 1, 2, 3, 2, 0x0b, 0x97, 0x0f, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step re-checks each lookup, so a long input costs the
		// minimizer seconds per attempt; 256 bytes is ample for ranges
		// that merge.
		checkPackedMatchesReference(t, data[:min(len(data), 256)])
	})
}

// Past 127 lanes the lane count takes a second byte, so the splice that
// adds the 128th moves every lane after the count — here in place.
func TestPackedLineageManyLanes(t *testing.T) {
	var (
		tab laneTable
		p   packedLineage
		ref LineageSummary
	)
	rng := rand.New(rand.NewSource(128))
	for i, k := range rng.Perm(300) {
		lane := packedLanes[k%4] + "/" + string(rune('a'+k%26)) + string(rune('a'+k/26))
		seq := uint64(1 + i%3)
		if i == 127 {
			p = slices.Grow(p, 64) // room for the 128th lane where the summary lies
		}
		p.tail().add(&tab, lane, seq, i%2 == 0, true)
		ref.Add(lane, seq, i%2 == 0, true)
		if got, want := p.unpack(&tab).String(), ref.String(); got != want {
			t.Fatalf("after %d lanes: packed renders %s, reference %s", i+1, got, want)
		}
	}
}

// A settle that extends a lane's watermark rewrites the packed bytes
// where they lie: it allocates nothing.
func TestPackedLineageSettleInPlace(t *testing.T) {
	var (
		tab laneTable
		p   packedLineage
	)
	for _, l := range packedLanes[:3] {
		p.tail().add(&tab, l, 1, false, true)
	}
	seq := uint64(1)
	if allocs := testing.AllocsPerRun(100, func() {
		seq++
		p.tail().add(&tab, packedLanes[1], seq, false, true)
		if !p.contains(&tab, packedLanes[1], seq) {
			t.Fatal("settled sequence not contained")
		}
	}); allocs != 0 {
		t.Fatalf("a watermark settle allocates %v objects", allocs)
	}
}

// checkSharedBufferMatchesOracles drives the op sequence data encodes
// against one decided log, whose buffer holds its entries and, behind
// them, a packed summary. Entry ops (record, restore, a fill past
// decidedLimit, compact with the peers' acks noted, compactLegacy) are
// checked against a map and an order slice; summary ops (add, union,
// mark) are applied to the log's tail, to a summary that stands alone
// and to the reference LineageSummary. After every op the tail must
// hold the standalone summary's exact bytes and answer every read as
// the reference does, and the entries must be the oracle's, in its
// order. Every settle is at time 0 and every compaction an hour later,
// so each entry of an indexed log has aged past retention.
func checkSharedBufferMatchesOracles(t *testing.T, data []byte) {
	t.Helper()
	type settled struct {
		d      Decision
		lane   string
		keySeq uint64
	}
	var (
		l          testLog
		p          packedLineage // the summary writes, standing alone
		ref, probe LineageSummary
		want       = map[TxID]settled{}
		order      []TxID
		noted      bool // the log holds the peers' summaries
		fills      int
	)
	const retention = time.Minute
	start, late := time.Unix(0, 0), time.Unix(3600, 0)
	acked := acking(20, packedLanes[0], packedLanes[1])
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	lane := func(b byte) string { return packedLanes[int(b)%(len(packedLanes)-1)] }
	evict := func(release func(s settled) bool) {
		kept := order[:0]
		for _, tx := range order {
			if release(want[tx]) {
				delete(want, tx)
			} else {
				kept = append(kept, tx)
			}
		}
		order = kept
	}
	settle := func(tx TxID, s settled, restore bool) {
		_, known := want[tx]
		var isNew bool
		if restore {
			isNew = l.restore(appendDecision(nil, tx, s.d, s.keySeq, nil))
		} else {
			_, isNew = l.record(s.d, Option{Tx: tx, KeySeq: s.keySeq,
				Update: record.Commutative(testLogKey, map[string]int64{"x": 1})}, true, start)
		}
		if isNew == known {
			t.Fatalf("settle(%s) new=%v, the oracle knows it: %v", tx, isNew, known)
		}
		if !known {
			want[tx], order = s, append(order, tx)
		}
	}
	for step := 0; len(data) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1, 2:
			b, seq := next(), next()
			s := settled{d: Decision(1 + b>>7), lane: lane(b), keySeq: uint64(seq % 24)}
			settle(TxID(fmt.Sprintf("%s#%d", s.lane, seq%40)), s, op%8 == 2)
		case 3:
			ln, seq, fl := lane(op/8), uint64(next()%14), next()
			got := l.tail().add(&l.tab, ln, seq, fl&1 != 0, fl&2 != 0)
			p.tail().add(&l.tab, ln, seq, fl&1 != 0, fl&2 != 0)
			if want := ref.Add(ln, seq, fl&1 != 0, fl&2 != 0); got != want {
				t.Fatalf("step %d: add(%s, %d) reported %v, reference %v", step, ln, seq, got, want)
			}
		case 4:
			var o LineageSummary
			for k := int(next() % 4); k > 0; k-- {
				b := next()
				o.Add(lane(b), uint64(b/5%14), b&0x80 != 0, false)
			}
			fl := next()
			o.Deltas, o.Physical = fl&1 != 0, fl&2 != 0
			l.tail().union(&l.tab, o)
			p.tail().union(&l.tab, o)
			ref.Union(o)
			probe = o
		case 5:
			l.tail().mark(false, true)
			p.tail().mark(false, true)
			ref.Physical = true
		case 6:
			// Two peers ack sequences 1 to 20 of the first two lanes; a
			// log past decidedLimit notes it.
			if len(order) > decidedLimit {
				for _, peer := range testReplicas[1:] {
					l.notePeer(peer, acked)
				}
				noted = true
			}
			if len(order) >= decidedIndexMin {
				evict(func(s settled) bool {
					return s.keySeq == 0 || noted && acked.Contains(s.lane, s.keySeq)
				})
			}
			l.compact(late, retention)
		case 7:
			if next()&1 == 0 && len(order) < decidedLimit {
				for i := 0; i < decidedLimit; i++ {
					fills++
					settle(TxID(fmt.Sprintf("fill#%d", fills)), settled{d: DecAccept, lane: "fill", keySeq: uint64(fills)}, i%2 == 0)
				}
				break
			}
			for len(order) > decidedLimit {
				delete(want, order[0])
				order = order[1:]
			}
			l.compactLegacy(late, retention)
		}
		if len(order) < decidedIndexMin {
			noted = false // a short log drops its index and the peers' summaries with it
		}
		if !bytes.Equal(l.summary(), p) {
			t.Fatalf("step %d: the log's tail is %x, the standalone summary %x", step, l.summary(), p)
		}
		comparePacked(t, step, &l.tab, l.summary(), ref, probe)
		if got := txs(&l); l.len() != len(order) || !slices.Equal(got, order) {
			t.Fatalf("step %d: %d entries %v, oracle %v", step, l.len(), got, order)
		}
		for _, tx := range order {
			if d, ok := l.get(tx); !ok || d != want[tx].d {
				t.Fatalf("step %d: get(%s) = %v %v, oracle %v", step, tx, d, ok, want[tx].d)
			}
		}
	}
}

// TestDecidedLogSharedBufferMatchesOracles: over random op sequences, a
// decided log's entries and the summary behind them in the same buffer
// never disturb each other: the entries match a map, the tail matches a
// summary of its own byte for byte, and both survive every compaction.
func TestDecidedLogSharedBufferMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 300; i++ {
		data := make([]byte, 8+rng.Intn(200))
		rng.Read(data)
		checkSharedBufferMatchesOracles(t, data)
	}
}

func FuzzDecidedLogSharedBuffer(f *testing.F) {
	// Entries, then a summary written behind them, then more entries.
	f.Add([]byte{0, 1, 5, 3, 2, 1, 8, 9, 3, 4, 2, 4, 3, 5, 7, 0})
	// A fill past decidedLimit, a summary, the peers' acks and both
	// compactions.
	f.Add([]byte{3, 1, 3, 7, 0, 11, 4, 3, 6, 7, 1, 0, 0, 9, 6, 5, 15, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSharedBufferMatchesOracles(t, data[:min(len(data), 256)])
	})
}
