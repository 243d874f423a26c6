package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// testLog is the decided log of one record, testLogKey, with a lane
// table of its own, as a storage node gives each record's log its own
// key and the node's one table.
type testLog struct {
	decidedLog
	tab laneTable
}

const testLogKey = record.Key("k")

// lookup is the decision of tx's entry, found by entry's scan.
func (l *testLog) lookup(tx TxID) (Decision, bool) {
	e, ok := l.entry(tx)
	return e.Decision, ok
}

func (l *testLog) entry(tx TxID) (decidedEntry, bool) {
	return l.decidedLog.entry(&l.tab, testLogKey, tx)
}

func (l *testLog) decision(tx TxID, keySeq uint64) (Decision, bool) {
	return l.decidedLog.decision(&l.tab, tx, keySeq)
}

func (l *testLog) record(d Decision, opt Option, hasOpt bool, at time.Time) decidedEntry {
	return l.decidedLog.record(&l.tab, testLogKey, d, opt, hasOpt, at)
}

// learn is the learned log's record, and reports whether it stored an
// entry (false for an option the summary already held).
func (l *testLog) learn(d Decision, opt Option, hasOpt bool, at time.Time) bool {
	before := l.len()
	l.decidedLog.learn(&l.tab, testLogKey, d, opt, hasOpt, at)
	return l.len() > before
}

// note and replay are the settle rules: every entry is noted in the
// summary before it is stored.
func (l *testLog) note(d Decision, opt Option) { l.decidedLog.note(&l.tab, d, opt) }

// replay replays body as a log tail's record.
func (l *testLog) replay(body []byte) { l.decidedLog.replay(&l.tab, testLogKey, 0, body, true) }

func (l *testLog) restore(body []byte) decidedEntry {
	return l.decidedLog.restore(&l.tab, testLogKey, 0, body)
}

// testReplicas are testLogKey's replicas: the log's own node, then its
// two peers.
var testReplicas = []transport.NodeID{"self", "p1", "p2"}

func (l *testLog) notePeer(from transport.NodeID, s LineageSummary) {
	l.decidedLog.notePeer(&l.tab, from, s)
}

func (l *testLog) compact(now time.Time, retention time.Duration) int {
	return l.decidedLog.compact(&l.tab, testLogKey, now, retention, testReplicas[0], testReplicas)
}

// acking is the summary of a replica that has settled sequences 1 to hi
// on each of lanes.
func acking(hi uint64, lanes ...string) LineageSummary {
	var s LineageSummary
	for _, lane := range lanes {
		for seq := uint64(1); seq <= hi; seq++ {
			s.Add(lane, seq, false, false)
		}
	}
	return s
}

// bare learns a contents-free decision of the option (lane, seq), with
// transaction id lane#seq (what the leader's learned log keeps of an
// option it only knows by id), and reports whether it stored an entry.
func bare(l *testLog, lane string, seq uint64, d Decision, at time.Time) bool {
	return l.learn(d, Option{Tx: TxID(fmt.Sprintf("%s#%d", lane, seq)), KeySeq: seq}, false, at)
}

// txs lists a log's transactions in settle order.
func txs(l *testLog) []TxID {
	var out []TxID
	l.each(&l.tab, testLogKey, func(e decidedEntry) bool {
		out = append(out, e.tx())
		return true
	})
	return out
}

// throughOplog writes e's decision record as a durable node does, reads
// it back as replay does and restores it into a fresh log: the entry a
// restarted node holds.
func throughOplog(t *testing.T, e decidedEntry) decidedEntry {
	t.Helper()
	disk, err := decodeOplogRecord(appendOplogEntry([]byte{oplogFormat}, &oplogEntry{Key: testLogKey, Decision: e.appendBody(nil)}))
	if err != nil {
		t.Fatal(err)
	}
	var fresh testLog
	fresh.restore(disk.Decision)
	got, ok := fresh.entry(e.tx())
	if !ok {
		t.Fatal("replayed decision not restored into an empty log")
	}
	return got
}

// The first decision of an option stands, on both kinds of log: the
// learned log's learn and a record's settle, replayed from its log's
// tail, ask the summary before they store, so a second decision of
// the same option is neither stored nor answered.
func TestDecidedLogFirstWriteWins(t *testing.T) {
	now := time.Unix(0, 0)
	var learned testLog
	bare(&learned, "c0", 1, DecAccept, now)
	if bare(&learned, "c0", 1, DecReject, now) {
		t.Fatal("a second decision of one option stored an entry")
	}
	if d, ok := learned.decision("c0#1", 1); !ok || d != DecAccept {
		t.Fatalf("summary answers %v %v, want the first decision", d, ok)
	}
	if d, ok := learned.lookup("c0#1"); !ok || d != DecAccept || learned.len() != 1 {
		t.Fatalf("entry %v %v of %d, want the first decision alone", d, ok, learned.len())
	}

	var rec testLog
	rec.replay(appendDecision(nil, "c0#1", DecAccept, 1, nil))
	rec.replay(appendDecision(nil, "c0#1", DecReject, 1, nil))
	if d, ok := rec.decision("c0#1", 1); !ok || d != DecAccept || rec.len() != 1 {
		t.Fatalf("summary answers %v %v with %d entries, want the first decision and one", d, ok, rec.len())
	}
}

// TestDecidedLogLegacyEviction: the leader's learned log's
// count-and-age trim keeps entries inside the retention horizon and
// takes the aged ones down to decidedLimit, oldest first; its summary
// still answers every option it dropped.
func TestDecidedLogLegacyEviction(t *testing.T) {
	var l testLog
	const retention = defaultDecidedRetention
	start := time.Unix(0, 0)
	tx := func(seq uint64) TxID { return TxID(fmt.Sprintf("c0#%d", seq)) }
	// Over the count limit but inside the retention horizon: nothing
	// may be forgotten (late visibility could still be re-delivered).
	n := uint64(decidedLimit + 2)
	for seq := uint64(1); seq <= n; seq++ {
		bare(&l, "c0", seq, DecAccept, start.Add(time.Duration(seq)*time.Millisecond))
	}
	l.trim(start.Add(5*time.Second), retention)
	if l.len() != int(n) || len(l.idx.at) != int(n) {
		t.Fatalf("entries inside the retention horizon evicted: %d entries, %d times", l.len(), len(l.idx.at))
	}
	// Once the oldest entries age past retention, the count limit
	// evicts them.
	late := start.Add(retention + 10*time.Second)
	bare(&l, "c0", n+1, DecAccept, late)
	l.trim(late, retention)
	if l.len() != decidedLimit || len(l.idx.at) != decidedLimit {
		t.Fatalf("aged-out entries not evicted down to limit: %d entries, %d times", l.len(), len(l.idx.at))
	}
	if _, ok := l.lookup(tx(1)); ok {
		t.Fatal("oldest aged-out entry not evicted")
	}
	if _, ok := l.lookup(tx(n + 1)); !ok {
		t.Fatal("newest entry missing")
	}
	for seq := uint64(1); seq <= n+1; seq++ {
		if d, ok := l.decision(tx(seq), seq); !ok || d != DecAccept {
			t.Fatalf("%s answers %v %v after the trim", tx(seq), d, ok)
		}
	}
}

// compact releases only entries that are BOTH aged past retention and
// contained in every peer replica's noted summary; unacked entries
// survive any age (the retention-is-a-cache-knob contract). Only a log
// longer than decidedLimit notes a summary.
func TestDecidedLogAckGatedCompaction(t *testing.T) {
	var l testLog
	const retention = defaultDecidedRetention
	start := time.Unix(0, 0)
	late := start.Add(retention + time.Minute)
	// The index is built at late, by the filler below, and the entries
	// settled before it age from then: aged is past retention for them.
	aged := late.Add(retention + time.Minute)
	settle := func(tx TxID, at time.Time) {
		l.record(DecAccept, Option{Tx: tx, KeySeq: 1, Update: record.Commutative("k", map[string]int64{"x": -1})}, true, at)
	}
	for i := 0; i < 6; i++ {
		settle(TxID(fmt.Sprintf("c%d#1", i)), start)
	}
	every := acking(1, "c0", "c1", "c2", "c3", "c4", "c5")
	// A short log notes nothing, so nothing is acked.
	for _, p := range testReplicas[1:] {
		l.notePeer(p, every)
	}
	if got := l.compact(aged, retention); got != 0 {
		t.Fatalf("a %d-entry log released %d entries", l.len(), got)
	}
	// Past decidedLimit it notes. The filler settles at late, on a lane
	// no peer acks: it is never released below.
	for i := 0; l.len() < decidedLimit+8; i++ {
		settle(TxID(fmt.Sprintf("fill#%d", i)), late)
	}
	// Nothing noted yet: nothing released, regardless of age or count.
	if got := l.compact(aged, retention); got != 0 {
		t.Fatalf("released %d unacked entries", got)
	}
	// One peer's ack is not every peer's.
	l.notePeer("p1", every)
	if got := l.compact(aged, retention); got != 0 {
		t.Fatalf("released %d entries one peer lacks", got)
	}
	// The other peer acks lanes c0..c3: exactly those become releasable.
	l.notePeer("p2", acking(1, "c0", "c1", "c2", "c3"))
	if got := l.compact(aged, retention); got != 4 {
		t.Fatalf("released %d, want 4", got)
	}
	if _, ok := l.lookup("c4#1"); !ok {
		t.Fatal("unacked entry lost")
	}
	// Aged but acked inside retention: still held (cache courtesy).
	l.notePeer("p2", every)
	if got := l.compact(late, retention); got != 0 {
		t.Fatalf("released %d entries inside retention", got)
	}
	if got := l.compact(aged, retention); got != 2 {
		t.Fatalf("released %d, want the last 2", got)
	}
}

// An entry settled before its log was indexed has no time of its own
// and ages from the index's build: acked by every peer, it is held until
// retention has passed since the build, however long ago it settled,
// and released after that.
func TestDecidedLogAgesFromIndexBuild(t *testing.T) {
	var l testLog
	const retention = defaultDecidedRetention
	start := time.Unix(0, 0)
	built := start.Add(time.Hour)
	settle := func(lane string, seq int, at time.Time) {
		l.record(DecAccept, Option{Tx: TxID(fmt.Sprintf("%s#%d", lane, seq)), KeySeq: uint64(seq),
			Update: record.Commutative(testLogKey, map[string]int64{"x": 1})}, true, at)
	}
	for seq := 1; seq < decidedIndexMin; seq++ {
		settle("c0", seq, start)
	}
	if l.idx != nil {
		t.Fatalf("a %d-entry log is indexed", l.len())
	}
	settle("c0", decidedIndexMin, built)
	for i, at := range l.idx.at {
		if at != built.UnixNano() {
			t.Fatalf("entry %d of a new index settled at %v, want the build time %v", i, time.Unix(0, at), built)
		}
	}
	// A long log notes the peers. They ack lane c0, not the filler's.
	for seq := 1; l.len() < decidedLimit+8; seq++ {
		settle("fill", seq, built)
	}
	for _, p := range testReplicas[1:] {
		l.notePeer(p, acking(decidedIndexMin, "c0"))
	}
	if got := l.compact(built.Add(retention-time.Second), retention); got != 0 {
		t.Fatalf("released %d entries inside retention of the build", got)
	}
	if got := l.compact(built.Add(retention), retention); got != decidedIndexMin {
		t.Fatalf("released %d entries past retention of the build, want %d", got, decidedIndexMin)
	}
	if _, ok := l.lookup("c0#1"); ok {
		t.Fatal("a released entry still answers")
	}
	if _, ok := l.lookup("fill#1"); !ok {
		t.Fatal("an unacked entry was released")
	}
}

// A log too short to be indexed holds its entries and nothing else: a
// length prefix and a packed decision each, no time. Once indexed, its
// times grow to fit while its buffer does, and past that hold no more
// slack than the buffer: at most one slot over its spare entries.
func TestShortDecidedLogKeepsNoClock(t *testing.T) {
	var l testLog
	want := 0
	for i := 0; i < decidedIndexMin-1; i++ {
		opt := Option{Tx: TxID(fmt.Sprintf("gw/us-west/c%d#%d", i%3, i)), KeySeq: uint64(i + 1),
			Update: record.Physical(testLogKey, record.Version(i), record.Value{Blob: []byte("8 bytes.")})}
		var up []byte
		switch i % 3 {
		case 1:
			opt.Update.Key = "j" // another record's update keeps its key
		case 2:
			opt = Option{Tx: opt.Tx} // no contents
		}
		if opt.Update.Kind != 0 {
			up = record.AppendUpdate(nil, opt.Update)
		}
		l.record(DecAccept, opt, opt.Update.Kind != 0, time.Unix(int64(i), 0))
		packed := packDecision(nil, &l.tab, testLogKey, parseID(opt.Tx), DecAccept, opt.KeySeq, up)
		want += len(transport.AppendUvarint(nil, uint64(len(packed)))) + len(packed)
	}
	if l.idx != nil {
		t.Fatalf("a %d-entry log is indexed", l.len())
	}
	if len(l.buf) != want {
		t.Fatalf("%d entries take %d B, want %d: %+.1f B per entry beside the length prefix and the packed decision",
			l.len(), len(l.buf), want, float64(len(l.buf)-want)/float64(l.len()))
	}
	for i := 0; i < 2; i++ {
		l.record(DecAccept, Option{Tx: TxID(fmt.Sprintf("c9#%d", i))}, false, time.Unix(100, 0))
	}
	if l.idx == nil {
		t.Fatalf("a %d-entry log is not indexed", l.len())
	}
	if len(l.idx.at) != l.len() || cap(l.idx.at) != len(l.idx.at) {
		t.Fatalf("a %d-entry log keeps %d times in %d slots", l.len(), len(l.idx.at), cap(l.idx.at))
	}
	size := 0 // every entry from here on packs to the same size
	for seq := 1000; seq < 3000; seq++ {
		before := len(l.buf)
		l.record(DecAccept, Option{Tx: TxID(fmt.Sprintf("c8#%d", seq))}, false, time.Unix(100, 0))
		size = len(l.buf) - before
		if spare := (cap(l.buf) - len(l.buf)) / size; cap(l.idx.at)-len(l.idx.at) > spare+1 {
			t.Fatalf("a %d-entry log keeps %d times in %d slots, its buffer room for %d more entries",
				l.len(), len(l.idx.at), cap(l.idx.at), spare)
		}
	}
	if len(l.buf) <= decidedFitMax {
		t.Fatalf("the log grew to %d B, not past the %d B it fits", len(l.buf), decidedFitMax)
	}
}

// A settled entry keeps what the oplog persists: the option decodes
// back to Tx, Update and KeySeq; coordinator and write-set are gone.
// The record's own key is elided from the update and put back, another
// key is kept. HasUp round-trips on its own: a present update with
// nothing in it (the zero Update) keeps contents, an absent one has
// none. Each holds in the log and through an oplog record, whose body
// is byte for byte what appendDecision writes.
func TestDecidedLogEntryKeepsOption(t *testing.T) {
	var l testLog
	at := time.Unix(0, 0)
	for _, opt := range []Option{
		{
			Tx: "gw/us-west/c0~MG3X9K2A#7", Coord: "gw/us-west/c0~MG3X9K2A", KeySeq: 3,
			WriteSet: []record.Key{"k", "j"}, WriteSeqs: []uint64{3, 1},
			Update: record.MergedCommutative(testLogKey, map[string]int64{"x": -1}, 4),
		},
		{Tx: "c0#007", KeySeq: 2, Update: record.Physical("j", 5, record.Value{Blob: []byte("another record's key")})},
		{Tx: "empty"},
	} {
		l.record(DecAccept, opt, true, at)
		logged, ok := l.entry(opt.Tx)
		if !ok {
			t.Fatalf("%s not found", opt.Tx)
		}
		if body, want := logged.appendBody(nil), appendDecision(nil, opt.Tx, DecAccept, opt.KeySeq, &opt.Update); !reflect.DeepEqual(body, want) {
			t.Fatalf("%s expands to\n%x, want\n%x", opt.Tx, body, want)
		}
		want := Option{Tx: opt.Tx, KeySeq: opt.KeySeq, Update: opt.Update}
		for name, e := range map[string]decidedEntry{"log": logged, "oplog": throughOplog(t, logged)} {
			if got, has := e.option(); !has || e.kind() != opt.Update.Kind || e.Decision != DecAccept || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s = %+v %v (kind %d), want %+v", name, opt.Tx, got, has, e.kind(), want)
			}
		}
	}
	if e, _ := l.entry("gw/us-west/c0~MG3X9K2A#7"); !e.elided || e.lane() != "gw/us-west/c0~MG3X9K2A" {
		t.Errorf("an update of the record itself is kept with its key (elided %v), lane %q", e.elided, e.lane())
	}
	if e, _ := l.entry("c0#007"); e.elided || e.lane() != "c0" {
		t.Errorf("an update of another key lost its key (elided %v), lane %q", e.elided, e.lane())
	}
	e := l.record(DecReject, Option{Tx: "absent"}, false, at)
	for name, e := range map[string]decidedEntry{"log": e, "oplog": throughOplog(t, e)} {
		if _, has := e.option(); has || e.kind() != 0 || e.up != nil || e.Decision != DecReject {
			t.Errorf("%s: contents-free entry = %+v", name, e)
		}
	}
}

// A long log keeps answering entry exactly after either compaction:
// trim drops the oldest entries off the front and compact moves the
// kept ones up, each with its settle time.
func TestDecidedLogIndexedAfterCompaction(t *testing.T) {
	var l testLog
	const retention = time.Minute
	start := time.Unix(0, 0)
	n := 2*decidedLimit + 10
	tx := func(i int) TxID { return TxID(fmt.Sprintf("c%d#%d", i%3, i)) }
	for i := 0; i < n; i++ {
		opt := Option{Tx: tx(i), KeySeq: uint64(i%2) + 1, Update: record.Commutative("k", map[string]int64{"x": int64(i)})}
		l.record(Decision(1+i%2), opt, true, start.Add(time.Duration(i)*time.Second))
	}
	check := func(stage string, present func(i int) bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			e, ok := l.entry(tx(i))
			if ok != present(i) {
				t.Fatalf("%s: %s present %v, want %v", stage, tx(i), ok, present(i))
			}
			if !ok {
				continue
			}
			opt, has := e.option()
			if e.Decision != Decision(1+i%2) || !has || opt.Tx != tx(i) || opt.Update.Deltas["x"] != int64(i) {
				t.Fatalf("%s: %s answers %v, entry %+v", stage, tx(i), e.Decision, opt)
			}
		}
		if _, ok := l.lookup("c0#absent"); ok {
			t.Fatalf("%s: absent transaction found", stage)
		}
	}
	check("filled", func(int) bool { return true })
	// The peers ack lane c1, noted while the log is long.
	for _, p := range testReplicas[1:] {
		l.notePeer(p, acking(2, "c1"))
	}
	// Everything older than an hour is past retention: the count cap
	// takes the oldest down to decidedLimit.
	l.trim(start.Add(time.Hour), retention)
	firstKept := n - decidedLimit
	check("trim", func(i int) bool { return i >= firstKept })
	// Release the lane-c1 entries the trim left.
	l.compact(start.Add(time.Hour), retention)
	check("compact", func(i int) bool { return i >= firstKept && i%3 != 1 })
	if l.idx == nil || len(l.idx.at) != l.len() {
		t.Fatalf("a %d-entry log keeps no times or the wrong number", l.len())
	}
}

// oracleTx draws a transaction id, most of them lane#seq as a
// coordinator mints them and the rest in every form the log keeps
// whole: no '#', an empty lane, no sequence, a leading zero, a
// sequence past 2^64. Lanes with a '#' of their own are minted too. It
// returns the option's lineage sequence beside it, a function of the
// id, so an id names one option; two ids may name the same option.
func oracleTx(rng *rand.Rand, steps int) (TxID, uint64) {
	lane, seq := rng.Intn(4), rng.Intn(steps)
	keySeq := uint64(seq) + 1
	switch rng.Intn(12) {
	case 0:
		return TxID(fmt.Sprintf("t%d", seq)), keySeq
	case 1:
		return TxID(fmt.Sprintf("#%d", seq)), keySeq
	case 2:
		return TxID(fmt.Sprintf("c%d#", lane)), 1
	case 3:
		return TxID(fmt.Sprintf("c%d#0%d", lane, seq)), keySeq
	case 4:
		return TxID(fmt.Sprintf("c%d#%d%020d", lane, seq+1, 0)), keySeq
	case 5:
		return TxID(fmt.Sprintf("a#c%d#%d", lane, seq)), keySeq
	}
	return TxID(fmt.Sprintf("c%d#%d", lane, seq)), keySeq
}

// TestDecidedLogMatchesMapOracle drives random learn / lookup /
// compact / trim sequences, long enough to cross the index threshold in
// both directions and the count limit, against a plain map plus order
// slice — the structure the log replaced — and a map of every option
// ever decided, which the summary must answer forever. learn asks the
// summary first, so an option it holds (under this id or another) is
// not stored again. Every entry found expands to the exact body
// appendDecision writes for it. Only a log with an index holds settle
// times: the entries it held when its index was built age from the
// build, and a log that drops below decidedIndexMin forgets them
// (noTime).
func TestDecidedLogMatchesMapOracle(t *testing.T) {
	const (
		retention = time.Minute
		noTime    = math.MaxInt64
	)
	type settled struct {
		d         Decision
		opt       Option
		hasOpt    bool
		settledAt int64
	}
	type option struct {
		lane string
		seq  uint64
	}
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 20; round++ {
		var l testLog
		ref := map[TxID]settled{}
		decided := map[option]Decision{}
		var order []TxID
		noted := false // the log holds the peers' summaries
		now := time.Unix(0, 0)
		evict := func(keep func(settled) bool) {
			kept := order[:0]
			for _, tx := range order {
				if keep(ref[tx]) {
					kept = append(kept, tx)
				} else {
					delete(ref, tx)
				}
			}
			order = kept
		}
		steps := 200 + rng.Intn(3*decidedLimit)
		// The peers ack the first half of lanes c0 and c1.
		acked := acking(uint64(steps/2), "c0", "c1")
		for step := 0; step < steps; step++ {
			now = now.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
			tx, keySeq := oracleTx(rng, steps)
			id := option{laneOf(tx), keySeq}
			switch op := rng.Intn(100); {
			case op < 70:
				key := testLogKey
				if rng.Intn(8) == 0 {
					key = "j" // an update of another record: its key is kept
				}
				s := settled{d: Decision(1 + rng.Intn(2)), hasOpt: rng.Intn(4) > 0, settledAt: noTime,
					opt: Option{Tx: tx, KeySeq: keySeq, Update: record.Commutative(key, map[string]int64{"x": int64(step)})}}
				learned := s.opt
				if !s.hasOpt {
					s.opt = Option{Tx: tx} // what a contents-free entry keeps
				}
				_, known := decided[id]
				if stored := l.learn(s.d, learned, s.hasOpt, now); stored == known {
					t.Fatalf("round %d step %d: learn(%s) stored %v, oracle knows the option: %v", round, step, tx, stored, known)
				}
				if known {
					break
				}
				decided[id] = s.d
				ref[tx] = s
				order = append(order, tx)
				if len(order) >= decidedIndexMin {
					// The log is indexed: the new entry settles now, and so
					// does every entry of a log the new one indexed.
					for _, tx := range order[len(order)-decidedIndexMin:] {
						s := ref[tx]
						if s.settledAt == noTime {
							s.settledAt = now.UnixNano()
							ref[tx] = s
						}
					}
				}
			case op < 90:
				if d, ok := l.decision(tx, keySeq); d != decided[id] || ok != (decided[id] != DecUnknown) {
					t.Fatalf("round %d step %d: decision(%s) = %v %v, oracle %v", round, step, tx, d, ok, decided[id])
				}
				e, ok := l.entry(tx)
				want, wok := ref[tx]
				opt, has := e.option()
				if ok != wok || e.Decision != want.d || has != want.hasOpt || (has && !reflect.DeepEqual(opt, want.opt)) {
					t.Fatalf("round %d step %d: entry(%s) = %+v %v; oracle %+v %v",
						round, step, tx, opt, ok, want, wok)
				}
				if !ok {
					break
				}
				var up *record.Update
				if want.hasOpt {
					up = &want.opt.Update
				}
				if body, wantBody := e.appendBody(nil), appendDecision(nil, tx, want.d, want.opt.KeySeq, up); !reflect.DeepEqual(body, wantBody) {
					t.Fatalf("round %d step %d: %s expands to %x, want %x", round, step, tx, body, wantBody)
				}
			case op < 95:
				// A long log notes the peers' acks and keeps them while it
				// stays indexed.
				if len(order) > decidedLimit {
					for _, p := range testReplicas[1:] {
						l.notePeer(p, acked)
					}
					noted = true
				}
				horizon := now.Add(-retention).UnixNano()
				before := len(order)
				evict(func(s settled) bool {
					return !(s.settledAt <= horizon && noted && acked.Contains(laneOf(s.opt.Tx), s.opt.KeySeq))
				})
				if got := l.compact(now, retention); got != before-len(order) {
					t.Fatalf("round %d step %d: compact released %d, oracle %d", round, step, got, before-len(order))
				}
			default:
				horizon := now.Add(-retention).UnixNano()
				for len(order) > decidedLimit && ref[order[0]].settledAt <= horizon {
					delete(ref, order[0])
					order = order[1:]
				}
				l.trim(now, retention)
			}
			if len(order) < decidedIndexMin {
				noted = false // a short log keeps no times and no peers
				for _, tx := range order {
					s := ref[tx]
					s.settledAt = noTime
					ref[tx] = s
				}
			}
			if l.len() != len(order) || (l.idx != nil) != (len(order) >= decidedIndexMin) {
				t.Fatalf("round %d step %d: %d entries (index %v), oracle %d",
					round, step, l.len(), l.idx != nil, len(order))
			}
			if l.idx != nil {
				if len(l.idx.at) != len(order) {
					t.Fatalf("round %d step %d: %d times for %d entries", round, step, len(l.idx.at), len(order))
				}
				for i, tx := range order {
					if l.idx.at[i] != ref[tx].settledAt {
						t.Fatalf("round %d step %d: %s (entry %d) settled at %d, oracle %d",
							round, step, tx, i, l.idx.at[i], ref[tx].settledAt)
					}
				}
			}
		}
		if got := txs(&l); !reflect.DeepEqual(got, order) && !(len(got) == 0 && len(order) == 0) {
			t.Fatalf("round %d: settle order diverged: %v vs oracle %v", round, got, order)
		}
		for id, want := range decided {
			if d, ok := l.summary().decision(&l.tab, id.lane, id.seq); !ok || d != want {
				t.Fatalf("round %d: the summary answers (%s, %d) as %v %v, oracle %v", round, id.lane, id.seq, d, ok, want)
			}
		}
	}
}

// FuzzDecidedEntryRoundTrip: for an arbitrary decision body on an
// arbitrary record key, restore followed by expansion gives back the
// exact bytes, record packs what restore packs, and entry answers as a
// map would — beside a second transaction and, when long is set,
// behind thirty-two more. restore stores every body it is given (its
// caller asks the summary first), so a transaction given twice is
// found by its first entry, which is the map's first write.
func FuzzDecidedEntryRoundTrip(f *testing.F) {
	f.Add("gw/us-west/c0~MG3X9K2A#42", "gw/us-west/c0~MG3X9K2A#43", "k", "k", uint8(DecAccept), uint64(3), uint8(record.KindCommutative), true, false)
	for _, tx := range []string{"t1", "#5", "c0#", "c0#007", "a#b#3", "c0#18446744073709551616", "c0#18446744073709551615", "c0#0"} {
		f.Add(tx, "c0#7", "k", "k", uint8(DecReject), uint64(0), uint8(record.KindPhysical), true, true)
	}
	// An update of another record than the log's keeps its key.
	f.Add("c0#1", "c0#2", "k", "j", uint8(DecAccept), uint64(1), uint8(record.KindPhysical), true, false)
	f.Fuzz(func(t *testing.T, tx, other, key, upKey string, d uint8, keySeq uint64, kind uint8, hasUp, long bool) {
		type settled struct {
			d    Decision
			body []byte
		}
		var (
			tab  laneTable
			l    decidedLog
			want = map[TxID]settled{}
		)
		settle := func(tx TxID, d Decision, body []byte) {
			before := l.len()
			l.restore(&tab, record.Key(key), 0, body)
			if l.len() != before+1 {
				t.Fatalf("restore(%q) took the log from %d entries to %d", tx, before, l.len())
			}
			if _, known := want[tx]; !known {
				want[tx] = settled{d, body}
			}
		}
		if long {
			for i := 0; i < decidedIndexMin; i++ {
				filler := TxID(fmt.Sprintf("f#%d", i))
				if i%2 == 1 {
					filler = TxID(fmt.Sprintf("g%d", i))
				}
				settle(filler, DecAccept, appendDecision(nil, filler, DecAccept, 0, nil))
			}
		}
		up := record.Update{
			Kind: record.UpdateKind(kind % 4), Key: record.Key(upKey), ReadVersion: record.Version(keySeq),
			NewValue: record.Encode(record.Value{Blob: []byte(other)}), Deltas: map[string]int64{"x": int64(keySeq)}, Merged: int(d),
		}
		upp := &up
		if !hasUp {
			upp, keySeq = nil, 0 // what record keeps of a contents-free option
		}
		body := appendDecision(nil, TxID(tx), Decision(d), keySeq, upp)
		settle(TxID(tx), Decision(d), body)
		settle(TxID(other), Decision(d^1), appendDecision(nil, TxID(other), Decision(d^1), keySeq+1, nil))

		var recorded, restored decidedLog
		recorded.record(&tab, record.Key(key), Decision(d), Option{Tx: TxID(tx), Update: up, KeySeq: keySeq}, hasUp, time.Unix(0, 0))
		restored.restore(&tab, record.Key(key), 0, body)
		if !reflect.DeepEqual(recorded.buf, restored.buf) {
			t.Fatalf("record packs %x, restore %x", recorded.buf, restored.buf)
		}

		for _, id := range []TxID{TxID(tx), TxID(other), TxID(tx + "#1"), "absent"} {
			w, known := want[id]
			e, ok := l.entry(&tab, record.Key(key), id)
			if ok != known {
				t.Fatalf("entry(%q) found %v; the map knows it: %v", id, ok, known)
			}
			if !known {
				continue
			}
			if e.Decision != w.d || e.tx() != id {
				t.Fatalf("entry(%q) = %v of %q; want %v", id, e.Decision, e.tx(), w.d)
			}
			if exp := e.appendBody(nil); !reflect.DeepEqual(exp, w.body) {
				t.Fatalf("%q expands to\n%x, want\n%x", id, exp, w.body)
			}
		}
	})
}

// decision, entry and record allocate nothing beyond the log's own
// growth: the lookups compare sequences and lane names in place, and a
// settle's one allocation is the buffer it lands in (its lane already
// numbered in the node's table).
func TestDecidedLogAllocations(t *testing.T) {
	probes := []TxID{"gw/us-west/c0~MG3X9K2A#5", "gw/us-west/c0~MG3X9K2A#absent", "gw/us-west/c9#5", "t5"}
	var l testLog
	for seq := uint64(1); seq <= 8; seq++ {
		bare(&l, "gw/us-west/c0~MG3X9K2A", seq, DecAccept, time.Unix(0, 0))
	}
	for _, tx := range probes {
		if a := testing.AllocsPerRun(100, func() { l.entry(tx); l.decision(tx, 5) }); a != 0 {
			t.Errorf("entry and decision of %s on a short log: %v allocations", tx, a)
		}
	}
	opt := Option{Tx: "gw/us-west/c0~MG3X9K2A#100", KeySeq: 9, Update: record.Commutative(testLogKey, map[string]int64{"x": 1})}
	if a := testing.AllocsPerRun(1, func() {
		var fresh decidedLog
		fresh.record(&l.tab, testLogKey, DecAccept, opt, true, time.Unix(0, 0))
	}); a != 1 {
		t.Errorf("first settle on a record: %v allocations, want 1 (its buffer)", a)
	}
	large := new(testLog)
	for seq := uint64(1); seq <= 100; seq++ {
		bare(large, "gw/us-west/c0~MG3X9K2A", seq, DecAccept, time.Unix(0, 0))
	}
	for _, tx := range probes {
		if a := testing.AllocsPerRun(100, func() { large.entry(tx); large.decision(tx, 5) }); a != 0 {
			t.Errorf("entry and decision of %s on a long log: %v allocations", tx, a)
		}
	}
}

func TestDemarcationLimits(t *testing.T) {
	q := paxos.NewQuorum(5) // slack = (N-QF)/N = 1/5
	cases := []struct {
		min, base, want int64
	}{
		{0, 100, 20},  // paper's L = (N-QF)/N * X
		{0, 0, 0},     // no headroom
		{0, 4, 1},     // ceil(4/5) = 1
		{10, 110, 30}, // shifted lower bound
		{0, 1, 1},     // ceil(1/5)
		{5, 3, 5},     // base below bound: limit pins to the bound
	}
	for _, c := range cases {
		if got := DemarcationLow(c.min, c.base, q); got != c.want {
			t.Errorf("DemarcationLow(%d,%d) = %d, want %d", c.min, c.base, got, c.want)
		}
	}
	// Upper mirror.
	if got := DemarcationHigh(100, 0, q); got != 80 {
		t.Errorf("DemarcationHigh(100,0) = %d, want 80", got)
	}
	if got := DemarcationHigh(100, 100, q); got != 100 {
		t.Errorf("demarcationHigh at the bound = %d, want 100", got)
	}
}

// The demarcation limit must never be looser than the true bound and
// never exceed the base (else nothing could ever be accepted).
func TestDemarcationLimitSafeRange(t *testing.T) {
	q := paxos.NewQuorum(5)
	f := func(min int16, head uint16) bool {
		m := int64(min)
		base := m + int64(head)
		l := DemarcationLow(m, base, q)
		return l >= m && l <= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// unitNode builds a single storage node with a null network for
// direct handler-level tests.
func unitNode(t *testing.T, mode Mode, cons []record.Constraint) (*StorageNode, *simnet.Net) {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 9})
	cfg := Defaults(mode)
	cfg.PendingTimeout = 0
	cfg.Constraints = cons
	n := NewStorageNode(topology.StorageID(topology.USWest, 0), topology.USWest, net, cl, cfg, kv.NewMemory())
	return n, net
}

func TestEvalPhysicalValidRead(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	_ = n.store.Put("k", record.Value{Attrs: map[string]int64{"x": 1}}, 3)
	ok, _ := n.evalPhysical(n.row("k"), nil, Option{Update: record.Physical("k", 3, record.Value{})})
	if ok != DecAccept {
		t.Fatal("matching vread rejected")
	}
	stale, _ := n.evalPhysical(n.row("k"), nil, Option{Update: record.Physical("k", 2, record.Value{})})
	if stale != DecReject {
		t.Fatal("stale vread accepted")
	}
	future, _ := n.evalPhysical(n.row("k"), nil, Option{Update: record.Physical("k", 9, record.Value{})})
	if future != DecReject {
		t.Fatal("future vread accepted")
	}
}

func TestEvalPhysicalValidSingle(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	_ = n.store.Put("k", record.Value{}, 1)
	pending := []VotedOption{{
		Opt:      Option{Tx: "other", Update: record.Physical("k", 1, record.Value{})},
		Decision: DecAccept,
	}}
	if d, _ := n.evalPhysical(n.row("k"), pending, Option{Tx: "me", Update: record.Physical("k", 1, record.Value{})}); d != DecReject {
		t.Fatal("option accepted despite outstanding option (deadlock-avoidance violated)")
	}
	// A rejected pending option does not block.
	pending[0].Decision = DecReject
	if d, _ := n.evalPhysical(n.row("k"), pending, Option{Tx: "me", Update: record.Physical("k", 1, record.Value{})}); d != DecAccept {
		t.Fatal("rejected pending option blocked a new option")
	}
}

func TestEvalPhysicalConstraint(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, []record.Constraint{record.MinBound("stock", 0)})
	_ = n.store.Put("k", record.Value{Attrs: map[string]int64{"stock": 5}}, 1)
	bad := Option{Update: record.Physical("k", 1, record.Value{Attrs: map[string]int64{"stock": -1}})}
	if d, _ := n.evalPhysical(n.row("k"), nil, bad); d != DecReject {
		t.Fatal("constraint-violating physical write accepted")
	}
}

func TestEvalCommutativeModes(t *testing.T) {
	for _, mode := range []Mode{ModeFast, ModeMulti} {
		n, _ := unitNode(t, mode, nil)
		opt := Option{Update: record.Commutative("k", map[string]int64{"x": -1})}
		if d, _ := n.evalCommutative(n.row("k"), nil, opt, true); d != DecReject {
			t.Fatalf("mode %v accepted a commutative update", mode)
		}
	}
}

func TestEvalCommutativeBlockedByPhysical(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	pending := []VotedOption{{
		Opt:      Option{Tx: "p", Update: record.Physical("k", 0, record.Value{})},
		Decision: DecAccept,
	}}
	opt := Option{Update: record.Commutative("k", map[string]int64{"x": -1})}
	if d, _ := n.evalCommutative(n.row("k"), pending, opt, true); d != DecReject {
		t.Fatal("commutative accepted over an outstanding physical rewrite")
	}
}

func TestEvalCommutativeDemarcationFastVsClassic(t *testing.T) {
	cons := []record.Constraint{record.MinBound("stock", 0)}
	n, _ := unitNode(t, ModeMDCC, cons)
	_ = n.store.Put("k", record.Value{Attrs: map[string]int64{"stock": 10}}, 1)
	// Fast limit: L = ceil(10/5) = 2, so only 8 units available per
	// node; classic can use all 10.
	big := Option{Tx: "t", Update: record.Commutative("k", map[string]int64{"stock": -9})}
	if d, _ := n.evalCommutative(n.row("k"), nil, big, true); d != DecReject {
		t.Fatal("fast ballot accepted a delta beyond the demarcation limit")
	}
	if d, _ := n.evalCommutative(n.row("k"), nil, big, false); d != DecAccept {
		t.Fatal("classic ballot rejected a delta within the true bound")
	}
	over := Option{Tx: "t", Update: record.Commutative("k", map[string]int64{"stock": -11})}
	if d, _ := n.evalCommutative(n.row("k"), nil, over, false); d != DecReject {
		t.Fatal("classic ballot accepted a constraint-violating delta")
	}
}

func TestEvalCommutativeCountsPending(t *testing.T) {
	cons := []record.Constraint{record.MinBound("stock", 0)}
	n, _ := unitNode(t, ModeMDCC, cons)
	_ = n.store.Put("k", record.Value{Attrs: map[string]int64{"stock": 10}}, 1)
	pending := []VotedOption{{
		Opt:      Option{Tx: "p", Update: record.Commutative("k", map[string]int64{"stock": -5})},
		Decision: DecAccept,
	}}
	// 10 - 5 pending - 4 = 1 < L=2 → reject in fast.
	next := Option{Tx: "q", Update: record.Commutative("k", map[string]int64{"stock": -4})}
	if d, _ := n.evalCommutative(n.row("k"), pending, next, true); d != DecReject {
		t.Fatal("fast ballot ignored pending decrements")
	}
	// But -3 leaves 2 = L → accept.
	ok := Option{Tx: "q", Update: record.Commutative("k", map[string]int64{"stock": -3})}
	if d, _ := n.evalCommutative(n.row("k"), pending, ok, true); d != DecAccept {
		t.Fatal("fast ballot over-rejected within the limit")
	}
	// Increments don't consume lower-bound headroom.
	inc := Option{Tx: "r", Update: record.Commutative("k", map[string]int64{"stock": +100})}
	if d, _ := n.evalCommutative(n.row("k"), pending, inc, true); d != DecAccept {
		t.Fatal("increment rejected under a lower bound")
	}
}

func TestAcceptorPhase1aPromise(t *testing.T) {
	n, net := unitNode(t, ModeMDCC, nil)
	var got []MsgPhase1b
	net.Register("probe", func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgPhase1b); ok {
			got = append(got, m)
		}
	})
	b1 := paxos.Classic(1, "probe")
	n.handle(transport.Envelope{From: "probe", Msg: MsgPhase1a{Key: "k", Ballot: b1}})
	net.RunFor(time.Second)
	if len(got) != 1 || got[0].Ballot.Cmp(b1) != 0 {
		t.Fatalf("phase1b = %+v", got)
	}
	// A lower ballot gets the higher promise back (nack).
	b0 := paxos.Classic(0, "loser")
	n.handle(transport.Envelope{From: "probe", Msg: MsgPhase1a{Key: "k", Ballot: b0}})
	net.RunFor(time.Second)
	if len(got) != 2 || got[1].Ballot.Cmp(b1) != 0 {
		t.Fatalf("nack should echo the promised ballot: %+v", got[1])
	}
}

func TestAcceptorPhase2aRespectsPromise(t *testing.T) {
	n, net := unitNode(t, ModeMDCC, nil)
	var got []MsgPhase2b
	net.Register("ldr", func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgPhase2b); ok {
			got = append(got, m)
		}
	})
	high := paxos.Classic(5, "other")
	n.handle(transport.Envelope{From: "ldr", Msg: MsgPhase1a{Key: "k", Ballot: high}})
	low := paxos.Classic(2, "ldr")
	n.handle(transport.Envelope{From: "ldr", Msg: MsgPhase2a{Key: "k", Ballot: low, Seq: 1}})
	net.RunFor(time.Second)
	var p2 *MsgPhase2b
	for i := range got {
		p2 = &got[i]
	}
	if p2 == nil || p2.OK {
		t.Fatalf("phase2a under a higher promise must be refused: %+v", p2)
	}
	if p2.Promised.Cmp(high) != 0 {
		t.Fatalf("refusal should report the promised ballot, got %v", p2.Promised)
	}
}

// The cast times stay parallel to the votes through every way a vote
// leaves or re-enters the cstruct, a re-adopted vote keeps its first
// cast time whatever order the leader ships it in, a dropped vote is
// zeroed out of the backing arrays — left in their tails it would pin
// its option's attribute map and write-set — and the arrays leave the
// record with its last vote, for the next record that votes.
func TestVoteBookkeepingStaysParallel(t *testing.T) {
	n, net := unitNode(t, ModeMDCC, nil)
	r := n.rs("k")
	opt := func(seq uint64) Option {
		return Option{
			Tx: TxID(fmt.Sprintf("c0#%d", seq)), Coord: "c0", KeySeq: seq,
			WriteSet: []record.Key{"k"}, WriteSeqs: []uint64{seq},
			Update: record.Commutative("k", map[string]int64{"x": int64(seq)}),
		}
	}
	castAt := make(map[uint64]int64)
	for seq := uint64(1); seq <= 3; seq++ {
		net.RunFor(time.Second)
		castAt[seq] = net.Now().UnixNano()
		n.castVote(r, opt(seq), DecAccept, ReasonNone)
	}
	check := func(when string, seqs ...uint64) {
		t.Helper()
		o := r.open
		if len(o.votes) != len(seqs) || len(o.votedAt) != len(seqs) {
			t.Fatalf("%s: %d votes, %d cast times, want %d", when, len(o.votes), len(o.votedAt), len(seqs))
		}
		for i, seq := range seqs {
			if o.votes[i].Opt.KeySeq != seq || o.votedAt[i] != castAt[seq] {
				t.Fatalf("%s: slot %d holds seq %d cast at %d, want seq %d cast at %d",
					when, i, o.votes[i].Opt.KeySeq, o.votedAt[i], seq, castAt[seq])
			}
		}
		for i, v := range o.votes[len(o.votes):cap(o.votes)] {
			if !reflect.DeepEqual(v, VotedOption{}) {
				t.Fatalf("%s: dropped vote %s still reachable %d past the end", when, v.Opt.Tx, i)
			}
		}
	}

	n.pruneVote(r, opt(2).ID())
	check("after pruneVote", 1, 3)

	// The leader re-ships the cstruct reordered and extended: carried
	// votes keep their clocks, the new one starts now.
	net.RunFor(time.Second)
	castAt[4] = net.Now().UnixNano()
	cstruct := []VotedOption{{Opt: opt(3), Decision: DecAccept}, {Opt: opt(4), Decision: DecAccept}, {Opt: opt(1), Decision: DecAccept}}
	n.onPhase2a("ldr", MsgPhase2a{Key: "k", Ballot: paxos.Classic(1, "ldr"), Seq: 1, CStruct: cstruct})
	check("after onPhase2a", 3, 4, 1)

	// The sweep releases votes the summary knows settled.
	r.decided.tail().add(&n.lanes, "c0", 3, false, true)
	r.decided.tail().add(&n.lanes, "c0", 1, true, false)
	n.sweepPending()
	check("after sweepPending", 4)

	// The last vote takes the arrays with it: the record (its open part
	// kept by the classic ballot) holds none, the node holds them
	// zeroed, and voting on another record uses them instead of
	// allocating.
	n.pruneVote(r, opt(4).ID())
	if o := r.open; o.votes != nil || o.votedAt != nil {
		t.Fatalf("record with no vote still holds vote arrays: cap %d, %d", cap(o.votes), cap(o.votedAt))
	}
	if len(n.freeVotes) == 0 {
		t.Fatal("the drained record's arrays were not kept for reuse")
	}
	for _, free := range n.freeVotes {
		for i, v := range free.votes[:cap(free.votes)] {
			if !reflect.DeepEqual(v, VotedOption{}) {
				t.Fatalf("free vote array still reaches %s in slot %d", v.Opt.Tx, i)
			}
		}
	}
	r2, o := n.rs("k2"), opt(5)
	if allocs := testing.AllocsPerRun(100, func() {
		n.castVote(r2, o, DecAccept, ReasonNone)
		n.pruneVote(r2, o.ID())
	}); allocs != 0 {
		t.Fatalf("a vote cast and settled on a record at rest allocates %v objects", allocs)
	}
	// A cstruct with nothing left to adopt leaves no arrays either.
	r.decided.tail().add(&n.lanes, "c0", 4, true, false)
	n.onPhase2a("ldr", MsgPhase2a{Key: "k", Ballot: paxos.Classic(1, "ldr"), Seq: 2, CStruct: cstruct[1:2]})
	if o := r.open; o.votes != nil || o.votedAt != nil {
		t.Fatal("an adopted cstruct of settled options left vote arrays on the record")
	}
	// A burst that opens a vote on more records than the list's bound
	// leaves at most the bound behind once it settles.
	burst := make([]*recState, maxFreeVoteSlots+8)
	for i := range burst {
		burst[i] = n.rs(record.Key(fmt.Sprintf("burst/%d", i)))
		n.castVote(burst[i], o, DecAccept, ReasonNone)
	}
	for _, b := range burst {
		n.pruneVote(b, o.ID())
	}
	if len(n.freeVotes) != maxFreeVoteSlots {
		t.Fatalf("free list holds %d pairs after the burst, bound %d", len(n.freeVotes), maxFreeVoteSlots)
	}
	if len(n.freeOpen) != maxFreeVoteSlots {
		t.Fatalf("free list holds %d open parts after the burst, bound %d", len(n.freeOpen), maxFreeVoteSlots)
	}
	// The next sweep gives both lists back, backing arrays included:
	// with no vote open, what the burst left is nobody's live use.
	n.sweepPending()
	if n.freeVotes != nil || n.freeOpen != nil {
		t.Fatalf("after a sweep with no vote open the free lists hold %d pairs and %d open parts (capacity %d, %d)",
			len(n.freeVotes), len(n.freeOpen), cap(n.freeVotes), cap(n.freeOpen))
	}
	// Voting refills them: once one vote has settled, the next cast
	// and settle reuse its pair and open part again.
	if allocs := testing.AllocsPerRun(100, func() {
		n.castVote(r2, o, DecAccept, ReasonNone)
		n.pruneVote(r2, o.ID())
	}); allocs != 0 {
		t.Fatalf("after the sweep a vote cast and settled allocates %v objects", allocs)
	}
}

// A record's open part exists only while the record needs it: a vote,
// a ballot off the initial one, a peer's summary. Absent, the record
// reports initialBallot(key) for both ballots — the implicit fast
// ballot, or in Multi mode the master's classic ballot 1 — and a
// record whose fast-path votes have all settled is at rest again.
func TestRecordOpenOnlyWhileNeeded(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 28)
	const key = record.Key("open/1")
	replicas := func() []*StorageNode {
		var out []*StorageNode
		for _, n := range w.nodes {
			for _, id := range w.cl.Replicas(key) {
				if n.ID() == id {
					out = append(out, n)
				}
			}
		}
		return out
	}
	for _, n := range replicas() {
		r := n.rs(key)
		if p, a := n.ballots(key, r); r.open != nil || p != paxos.DefaultFast || a != paxos.DefaultFast {
			t.Fatalf("%s: untouched record open %v, ballots %v %v", n.ID(), r.open != nil, p, a)
		}
	}

	// The fast path: each replica opens the record for its vote and
	// drops the open part when the visibility settles it.
	var res []CommitResult
	w.commitAsync(0, &res, record.Insert(key, record.Value{Attrs: map[string]int64{"x": 0}}))
	if !w.net.RunUntil(func() bool {
		for _, n := range replicas() {
			if len(n.rs(key).votes()) == 0 {
				return false
			}
		}
		return true
	}, time.Minute) {
		t.Fatal("the insert's votes never reached every replica")
	}
	w.settle()
	if len(res) != 1 || !res[0].Committed {
		t.Fatalf("insert: %+v", res)
	}
	for _, n := range replicas() {
		if r := n.rs(key); r.open != nil {
			t.Fatalf("%s: a settled fast-path record keeps its open part", n.ID())
		}
	}

	// Collision recovery: a leader's classic round promises and
	// accepts a classic ballot on every replica, so each keeps its open
	// part after the option settles — the ballots are no longer the
	// initial ones.
	opt := Option{
		Tx: "tx-recover", Coord: w.coords[0].ID(), KeySeq: 1,
		Update:   record.Physical(key, 1, record.Value{Attrs: map[string]int64{"x": 7}}),
		WriteSet: []record.Key{key}, WriteSeqs: []uint64{1},
	}
	leader := topology.StorageID(topology.USWest, 0)
	w.net.Send("test", leader, MsgStartRecovery{Key: key, Opt: opt, HasOpt: true})
	w.settle()
	for _, n := range replicas() {
		if len(n.rs(key).votes()) != 1 {
			t.Fatalf("%s: the recovery round's cstruct was not adopted", n.ID())
		}
		// The option's own coordinator never started it, so the test
		// delivers its visibility.
		w.net.Send("test", n.ID(), visibilityFor(opt, true))
	}
	w.settle()
	for _, n := range replicas() {
		r := n.rs(key)
		if r.open == nil {
			t.Fatalf("%s: a record in a classic round has no open part", n.ID())
		}
		if p, _ := n.ballots(key, r); p == paxos.DefaultFast {
			t.Fatalf("%s: the recovery round left the promise at the initial ballot", n.ID())
		}
		if len(r.votes()) != 0 {
			t.Fatalf("%s: %d votes unresolved after the round settled", n.ID(), len(r.votes()))
		}
	}

	// Multi mode: a record with no open part is owned by its master at
	// classic ballot 1, so a fast proposal is forwarded there — and
	// forwarding opens nothing (the master's classic round, once the
	// network runs, does).
	n, net := unitNode(t, ModeMulti, nil)
	var votes []MsgVote
	net.Register("c0", func(e transport.Envelope) {
		if m, ok := e.Msg.(MsgVoteBatch); ok {
			votes = append(votes, m.Votes...)
		}
	})
	r := n.rs(key)
	master := paxos.Classic(1, string(n.leaderFor(key)))
	if p, a := n.ballots(key, r); p != master || a != master {
		t.Fatalf("multi: a record at rest reports %v %v, want %v", p, a, master)
	}
	n.handle(transport.Envelope{From: "c0", Msg: MsgProposeBatch{Opts: []Option{{
		Tx: "c0#1", Coord: "c0", KeySeq: 1,
		Update:   record.Insert(key, record.Value{Attrs: map[string]int64{"x": 0}}),
		WriteSet: []record.Key{key}, WriteSeqs: []uint64{1},
	}}}})
	if r.open != nil {
		t.Fatal("multi: forwarding a proposal opened the record")
	}
	net.RunFor(time.Second)
	if len(votes) == 0 || !votes[0].Forwarded || votes[0].Leader != n.leaderFor(key) || votes[0].Ballot != master {
		t.Fatalf("multi: proposal answered %+v, want a forward to %s at %v", votes, n.leaderFor(key), master)
	}
}

// TestMalformedProposalRefused: an option whose WriteSeqs is not
// parallel to its WriteSet, whose WriteSet is empty or leaves out its
// own key, or whose KeySeq differs from its WriteSeqs entry is refused
// where it enters, off the wire, through every door that takes it in
// (a proposal, a leader's request or recovery, an accept vote in a
// Phase2a cstruct): no vote is cast or answered, no leader round
// carries it, and a sweep afterwards starts no recovery (recovery
// indexes WriteSeqs by WriteSet position, so such a vote would panic
// the node or ask about keys forever). A well-formed option through
// the same doors is taken in.
func TestMalformedProposalRefused(t *testing.T) {
	key := record.Key("mal/1")
	opt := func(tx TxID, ws []record.Key, seqs []uint64) Option {
		return Option{Tx: tx, Coord: "c0", KeySeq: 1, WriteSet: ws, WriteSeqs: seqs,
			Update: record.Insert(key, record.Value{Attrs: map[string]int64{"x": 0}})}
	}
	malformed := map[string]Option{
		"short WriteSeqs":   opt("c0#1", []record.Key{key, "mal/2"}, []uint64{1}),
		"long WriteSeqs":    opt("c0#2", []record.Key{key}, []uint64{1, 1}),
		"empty WriteSet":    opt("c0#3", nil, nil),
		"own key left out":  opt("c0#4", []record.Key{"mal/2"}, []uint64{1}),
		"KeySeq not listed": opt("c0#5", []record.Key{key}, []uint64{2}),
	}
	// Every door sends its message through the codec, as a peer's
	// frame would arrive.
	deliver := func(n *StorageNode, m transport.Message) {
		t.Helper()
		buf, err := transport.AppendEnvelope(nil, transport.Envelope{From: "c0", To: n.ID(), Msg: m})
		if err != nil {
			t.Fatal(err)
		}
		env, err := transport.DecodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		n.handle(env)
	}
	doors := map[string]func(n *StorageNode, o Option){
		"propose batch":  func(n *StorageNode, o Option) { deliver(n, MsgProposeBatch{Opts: []Option{o}}) },
		"propose leader": func(n *StorageNode, o Option) { deliver(n, MsgProposeLeader{Opt: o}) },
		"start recovery": func(n *StorageNode, o Option) { deliver(n, MsgStartRecovery{Key: key, Opt: o, HasOpt: true}) },
		"recover request": func(n *StorageNode, o Option) {
			deliver(n, MsgRecoverOpt{ReqID: 1, Tx: o.Tx, Key: key, KeySeq: 1, Opt: o, HasOpt: true})
		},
		"phase2a accept": func(n *StorageNode, o Option) {
			deliver(n, MsgPhase2a{Key: key, Ballot: paxos.Classic(1, "c0"), Seq: 1,
				CStruct: []VotedOption{{Opt: o, Decision: DecAccept}}})
		},
	}
	// took reports whether the node voted on o or its leader role
	// carries o in a round (queued behind Phase 1 or in the cstruct).
	took := func(n *StorageNode, o Option) bool {
		return len(n.rs(key).votes()) > 0 || n.lr(key).inFlight(o.ID())
	}
	for door, send := range doors {
		for name, o := range malformed {
			n, net := unitNode(t, ModeMDCC, nil)
			answered := 0
			net.Register("c0", func(e transport.Envelope) {
				if _, ok := e.Msg.(MsgVoteBatch); ok {
					answered++
				}
			})
			send(n, o)
			net.RunFor(time.Second)
			if answered != 0 || took(n, o) {
				t.Fatalf("%s, %s: the node took the option in (%d answers)", door, name, answered)
			}
			n.sweepPending()
			if len(n.recoveries) != 0 {
				t.Fatalf("%s, %s: the sweep started a recovery", door, name)
			}
		}
		n, net := unitNode(t, ModeMDCC, nil)
		o := opt("c0#9", []record.Key{key, "mal/2"}, []uint64{1, 1})
		send(n, o)
		net.RunFor(time.Second)
		if !took(n, o) {
			t.Fatalf("%s: a well-formed option was not taken in", door)
		}
	}
	// A vote on a well-formed option is recovered by the sweep.
	n, net := unitNode(t, ModeMDCC, nil)
	deliver(n, MsgProposeBatch{Opts: []Option{opt("c0#9", []record.Key{key, "mal/2"}, []uint64{1, 1})}})
	net.RunFor(time.Second)
	n.sweepPending()
	if len(n.recoveries) != 1 {
		t.Fatalf("the sweep started %d recoveries for a well-formed vote, want 1", len(n.recoveries))
	}
}

func TestVisibilityIdempotent(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	opt := Option{Tx: "t", Update: record.Commutative("k", map[string]int64{"x": -1})}
	vis := MsgVisibility{Opt: opt, Commit: true}
	n.onVisibility(vis)
	n.onVisibility(vis)
	n.onVisibility(vis)
	v, ver, _ := n.store.Get("k")
	if v.Attr("x") != -1 || ver != 1 {
		t.Fatalf("triple visibility applied %d times (x=%d v%d)", ver, v.Attr("x"), ver)
	}
}

func TestVisibilityAbortDiscards(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	_ = n.store.Put("k", record.Value{Attrs: map[string]int64{"x": 5}}, 1)
	opt := Option{Tx: "t", Update: record.Physical("k", 1, record.Value{Attrs: map[string]int64{"x": 99}})}
	n.onVisibility(MsgVisibility{Opt: opt, Commit: false})
	v, ver, _ := n.store.Get("k")
	if v.Attr("x") != 5 || ver != 1 {
		t.Fatalf("abort visibility mutated the store: %v v%d", v, ver)
	}
	// A later commit for the same option is ignored (decision final).
	n.onVisibility(MsgVisibility{Opt: opt, Commit: true})
	if v, _, _ := n.store.Get("k"); v.Attr("x") != 5 {
		t.Fatal("post-abort commit applied")
	}
}

func TestPhysicalVisibilitySupersededSkipped(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	_ = n.store.Put("k", record.Value{Attrs: map[string]int64{"x": 3}}, 3)
	// A late visibility for version 2 (read version 1) must not roll back.
	old := Option{Tx: "old", Update: record.Physical("k", 1, record.Value{Attrs: map[string]int64{"x": 1}})}
	n.onVisibility(MsgVisibility{Opt: old, Commit: true})
	v, ver, _ := n.store.Get("k")
	if ver != 3 || v.Attr("x") != 3 {
		t.Fatalf("stale visibility rolled back the record: %v v%d", v, ver)
	}
}

func TestInitialBallotByMode(t *testing.T) {
	n, _ := unitNode(t, ModeMDCC, nil)
	if b := n.initialBallot("k"); !b.Fast || b.N != 0 {
		t.Fatalf("MDCC initial ballot = %v, want fast:0", b)
	}
	nm, _ := unitNode(t, ModeMulti, nil)
	if b := nm.initialBallot("k"); b.Fast || b.N != 1 {
		t.Fatalf("Multi initial ballot = %v, want classic:1", b)
	}
}

func TestDefaultMasterDCUniform(t *testing.T) {
	counts := make([]int, topology.NumDCs)
	for i := 0; i < 5000; i++ {
		dc := topology.DefaultMasterDC(record.Key(fmt.Sprintf("item/%06d", i)))
		counts[dc]++
	}
	for dc, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("master distribution skewed: dc%d has %d of 5000", dc, c)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeMDCC.String() != "MDCC" || ModeFast.String() != "Fast" || ModeMulti.String() != "Multi" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() != "mode?" {
		t.Fatal("unknown mode name")
	}
	if DecAccept.String() != "accept" || DecReject.String() != "reject" || DecUnknown.String() != "unknown" {
		t.Fatal("decision names wrong")
	}
}

// TestMetricsAddCoversEveryField guards the hand-listed Add methods:
// a counter added to Metrics or CoordMetrics but not to its Add would
// silently vanish from every aggregated report.
func TestMetricsAddCoversEveryField(t *testing.T) {
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetInt(int64(i + 1))
		}
	}
	var m, sum Metrics
	fill(reflect.ValueOf(&m).Elem())
	sum.Add(m)
	sum.Add(m)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		want := int64(2 * (i + 1))
		if got.Type().Field(i).Name == "RingEpoch" {
			want = int64(i + 1) // gauge: max, not sum
		}
		if got.Field(i).Int() != want {
			t.Errorf("Metrics.Add: %s = %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), want)
		}
	}
	var c, csum CoordMetrics
	fill(reflect.ValueOf(&c).Elem())
	csum.Add(c)
	csum.Add(c)
	cgot := reflect.ValueOf(csum)
	for i := 0; i < cgot.NumField(); i++ {
		if cgot.Field(i).Int() != int64(2*(i+1)) {
			t.Errorf("CoordMetrics.Add: %s = %d, want %d", cgot.Type().Field(i).Name, cgot.Field(i).Int(), 2*(i+1))
		}
	}
}
