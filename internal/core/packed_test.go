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
// whether the summary changed (false for duplicates). Sequence 0 is
// an ordinary one: no coordinator mints it, but a summary holds it
// like any other.
func (s *LineageSummary) Add(lane string, seq uint64, rejected, applied bool) bool {
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
	// ref's accepted options alone, and without the last of them: the
	// edge of acceptedOutside, where rejects split a done range.
	var accepted, short LineageSummary
	acc := acceptedOf(ref)
	for i, a := range acc {
		accepted.Add(a.lane, a.seq, false, false)
		if i < len(acc)-1 {
			short.Add(a.lane, a.seq, false, false)
		}
	}
	for _, o := range []LineageSummary{probe, ref, grown, {}, accepted, short} {
		if got, want := p.containsAll(tab, o), ref.ContainsAll(o); got != want {
			t.Fatalf("step %d: containsAll(%s) = %v, reference %v (%s)", step, o, got, want, ref)
		}
		want := false
		for _, a := range acc {
			want = want || !o.Contains(a.lane, a.seq)
		}
		if got := p.acceptedOutside(tab, o); got != want {
			t.Fatalf("step %d: acceptedOutside(%s) = %v, reference %v (%s)", step, o, got, want, ref)
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

type laneSeq struct {
	lane string
	seq  uint64
}

// acceptedOf lists, by enumeration, the options s settled as accepted:
// each lane's Done less its Rejected.
func acceptedOf(s LineageSummary) []laneSeq {
	var out []laneSeq
	for _, l := range s.Lanes {
		for _, r := range l.Done {
			for seq := r.Lo; seq <= r.Hi; seq++ {
				if !rangeContains(l.Rejected, seq) {
					out = append(out, laneSeq{l.Lane, seq})
				}
			}
		}
	}
	return out
}

// TestPackedLineageMatchesReference: over random op sequences on
// several lanes — rejects, gaps that later merge, sequence 0, unions
// with empty lanes — the packed summary answers every read exactly as
// the reference LineageSummary does (acceptedOutside against an
// enumeration of the accepted options), renders the same fingerprint
// and unpacks to it.
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
	// A reject splits a done range (1-3 with 2 rejected), then a
	// reject on a second lane sits at its done range's low edge.
	f.Add([]byte{0, 1, 0, 0, 2, 1, 0, 3, 0, 5, 4, 1, 5, 5, 0})
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
// them, a packed summary. Entry ops (a live settle, a replayed body
// without contents, a fill past decidedLimit, compact with the peers'
// acks noted, trim) are checked against a map and an order slice; each
// settles by the product's rule: an option the summary already holds
// is skipped, and a new one is noted in the summary before the log
// stores it (note, replay). Summary ops (add, union,
// mark) and the notes are applied to the log's tail, to a summary that
// stands alone and to the reference LineageSummary. After every op the
// tail must hold the standalone summary's exact bytes and answer every
// read as the reference does, the entries must be the oracle's, in its
// order, and each entry's decision must be its summary's answer for
// the entry's lane and sequence: the summary alone answers settled.
// Every option carries an identity, as a coordinator mints it: tx
// lane#n is sequence n+1 of its lane, and its decision is a function
// of the sequence (decisionOf), which the summary ops follow too, so
// no two settles of one option disagree. Every settle is at time 0 and
// every compaction an hour later, so each entry of an indexed log has
// aged past retention.
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
	// settle is onVisibility's caller contract: an option the summary
	// holds (settled, adopted or written into it directly) is skipped;
	// a new one is noted, then stored. A replayed body is skipped by
	// replay itself.
	settle := func(tx TxID, s settled, replay bool) {
		known := ref.Contains(s.lane, s.keySeq)
		before, applied := l.len(), false
		switch {
		case replay:
			l.replay(appendDecision(nil, tx, s.d, s.keySeq, nil))
		case !known:
			opt := Option{Tx: tx, KeySeq: s.keySeq, Update: record.Commutative(testLogKey, map[string]int64{"x": 1})}
			l.note(s.d, opt)
			l.record(s.d, opt, true, start)
			applied = s.d == DecAccept
		}
		if stored := l.len() > before; stored == known {
			t.Fatalf("settle(%s) stored %v, the summary holds it: %v", tx, stored, known)
		}
		if known {
			return
		}
		p.tail().add(&l.tab, s.lane, s.keySeq, s.d != DecAccept, applied)
		ref.Add(s.lane, s.keySeq, s.d != DecAccept, applied)
		want[tx], order = s, append(order, tx)
	}
	for step := 0; len(data) > 0; step++ {
		switch op := next(); op % 8 {
		case 0, 1, 2:
			b, n := next(), next()%40
			s := settled{lane: lane(b), keySeq: uint64(n) + 1}
			s.d = decisionOf(s.keySeq)
			settle(TxID(fmt.Sprintf("%s#%d", s.lane, n)), s, op%8 == 2)
		case 3:
			ln, seq, fl := lane(op/8), uint64(next()%14), next()
			rej := decisionOf(seq) == DecReject
			got := l.tail().add(&l.tab, ln, seq, rej, fl&2 != 0)
			p.tail().add(&l.tab, ln, seq, rej, fl&2 != 0)
			if want := ref.Add(ln, seq, rej, fl&2 != 0); got != want {
				t.Fatalf("step %d: add(%s, %d) reported %v, reference %v", step, ln, seq, got, want)
			}
		case 4:
			var o LineageSummary
			for k := int(next() % 4); k > 0; k-- {
				b := next()
				seq := uint64(b / 5 % 14)
				o.Add(lane(b), seq, decisionOf(seq) == DecReject, false)
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
					return noted && acked.Contains(s.lane, s.keySeq)
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
			l.trim(late, retention)
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
		l.each(&l.tab, testLogKey, func(e decidedEntry) bool {
			if w := want[e.tx()]; e.Decision != w.d {
				t.Fatalf("step %d: %s holds %v, oracle %v", step, e.tx(), e.Decision, w.d)
			}
			if d, ok := l.summary().decision(&l.tab, e.lane(), e.KeySeq); !ok || d != e.Decision {
				t.Fatalf("step %d: %s settled %v, its summary answers %v %v", step, e.tx(), e.Decision, d, ok)
			}
			return true
		})
	}
}

// decisionOf is the one decision the shared-buffer ops give sequence
// seq: an option settles one way everywhere.
func decisionOf(seq uint64) Decision {
	if seq%3 == 0 {
		return DecReject
	}
	return DecAccept
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
