package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// codecNet is the least network a storage node runs on: it hands the
// node every message through the wire codec — so what the node retains
// is what a TCP node retains, each message its own allocations — sends
// nowhere and arms no timer. Its clock moves only when clock is set.
type codecNet struct {
	handler transport.Handler
	frame   []byte
	clock   time.Duration
}

type inertTimer struct{}

func (inertTimer) Stop() bool { return false }

func (n *codecNet) Register(_ transport.NodeID, h transport.Handler) { n.handler = h }
func (n *codecNet) Send(_, _ transport.NodeID, _ transport.Message)  {}
func (n *codecNet) After(transport.NodeID, time.Duration, func()) transport.Timer {
	return inertTimer{}
}
func (n *codecNet) Now() time.Time { return time.Unix(1, 0).Add(n.clock) }

func (n *codecNet) deliver(t *testing.T, from, to transport.NodeID, msg transport.Message) {
	var err error
	n.frame, err = transport.AppendEnvelope(n.frame[:0], transport.Envelope{From: from, To: to, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	env, err := transport.DecodeFrame(n.frame)
	if err != nil {
		t.Fatal(err)
	}
	n.handler(env)
}

// TestResidentBytesPerSettledOption is the retained-heap gate: what a
// storage node still holds, after two collections, per option it has
// settled on a physical record and per record it has ever touched,
// pinned like the wire allocation gates. Each record settles an insert,
// then the rewrite that locks its class physical (the record's creation,
// measured per record), then six more rewrites (measured per option).
// The option path is the fast path's: one ProposeBatch, one
// Visibility, both through the codec. Values carry a blob and no
// attributes, so no map is allocated per record or per option anywhere
// on the path and the figures do not depend on the runtime's map
// layout.
//
// The one-lane arm settles every option on one coordinator lane.
// Measured go1.24, amd64: 0 B per option — a physical record keeps no
// decided entries, and a settle that extends its lane's watermark
// rewrites the packed summary where it lies — and 210 B per record: its
// 48-byte state in the node's slab, its 8-byte summary, its row in the
// store (the stored value, and the handle that finds the state), and
// its key, in a run that also fills the key intern table. The record
// reads one of two values from run to run of one binary, 210 B or
// 230–233 B, for a reason not yet found; it read 249 B or 269 B while the
// node indexed its records a second time, in a B-tree of their own
// beside the store's, and 277 B or 298 B while that index was a hash
// map, so neither index is the step's cause. Beside the heap delta the test counts what the node
// holds per record exactly, recState plus the buffer's capacity: 56 B,
// which no collector timing can move. Per option it was 21 B while a
// physical record kept an entry per option (its packed bytes in the
// record's one buffer, in front of the summary), 19 B while the summary
// was an allocation of its own, 27 B (25 B in an earlier run) while
// each entry also held an eight-byte settle time, 53 B while each entry
// held its transaction id and its update's key in full, 110 B while
// each entry was a 64-byte slot beside an encoded-update allocation,
// pinning its wire-decoded transaction id, and 360 B before that, with
// a map of whole Options per record. Per record the figure was taken
// after the insert alone until entries went (279 B or 300 B then, the
// insert's entry included): 320 B while the state was an 80-byte struct
// beside a separate summary allocation, and 548 B while it was one
// 208-byte struct holding both ballots, the vote arrays' headers and an
// unpacked lineage summary with a 64-byte slot and a range array per
// lane (TestRecStateIs48Bytes). A settled record holds no open part
// (and so no vote arrays), which the test asserts record by record.
//
// The many-lanes arm is sixteen coordinators (gateways' and sessions')
// with incarnation tokens, each record's options on rotating lanes, so
// every option opens a lane in the record's lineage summary. It reads 5
// B per option: the lane's bytes in the packed summary, which names it
// by its index in the node's lane table; exactly, 91 B per record. It
// was 25 B while the record also kept the option's entry, 24 B while
// the summary had an allocation of its own, 32 B (30 B in an earlier
// run) while the entry held its settle time, 66 B while the entry held
// its transaction id in full, 142 B while each lane took a LaneLineage
// slot and a Done range of its own, and 198 B while each lane's name
// was a substring of a transaction id that its bytes kept alive.
func TestResidentBytesPerSettledOption(t *testing.T) {
	const (
		maxPerOption      = 2
		maxPerOptionLanes = 8
		lanes             = 16
		// The exact counts: recState and the summary alone.
		maxStructural      = 56
		maxStructuralLanes = 91
	)
	perOption, perRec, structural := residentPerSettledOption(t, oneLane)
	t.Logf("one lane: %.0f B per settled option, %.0f B per record, %.0f B of state and buffer per record", perOption, perRec, structural)
	if perOption > maxPerOption {
		t.Errorf("one lane: %.0f B retained per settled option, gate %d", perOption, maxPerOption)
	}
	if perRec > maxPerRecord {
		t.Errorf("one lane: %.0f B retained per touched record, gate %d", perRec, maxPerRecord)
	}
	if structural > maxStructural {
		t.Errorf("one lane: %.1f B of state and buffer per record, gate %d", structural, maxStructural)
	}

	var laneSeq [lanes]int
	perOption, _, structural = residentPerSettledOption(t, func(rec, round, _ int) (TxID, transport.NodeID, uint64) {
		// Fewer rounds than lanes: each lane proposes on a record once,
		// so its per-key sequence is 1.
		lane := (rec + round) % lanes
		laneSeq[lane]++
		coord := transport.NodeID(fmt.Sprintf("gw/us-west/c%d", lane))
		return TxID(fmt.Sprintf("%s~MG3X9K2A#%d", coord, laneSeq[lane])), coord, 1
	})
	t.Logf("%d lanes: %.0f B per settled option, %.0f B of state and buffer per record", lanes, perOption, structural)
	if perOption > maxPerOptionLanes {
		t.Errorf("%d lanes: %.0f B retained per settled option, gate %d", lanes, perOption, maxPerOptionLanes)
	}
	if structural > maxStructuralLanes {
		t.Errorf("%d lanes: %.1f B of state and buffer per record, gate %d", lanes, structural, maxStructuralLanes)
	}
}

// residentRecords is how many records the resident-bytes gates settle
// options on.
const residentRecords = 2000

// maxPerRecord is the per-record gate of the resident-bytes tests: 12 B
// above the 233 B a physical record reads in its worst run (210 B in
// most; 24 runs read 210 ×18, 230 ×1, 231 ×4, 233 ×1). It was 281 B while the
// node kept a record index of its own, a B-tree beside the store's
// (249 B in most runs, 269 B in the worse), 310 B while that index was
// a hash map (277 B in most runs, 298 B in the worse), and was set there
// when the record was measured after its insert, at 279 B or 300 B,
// below the 320 B that the layout with a separate summary allocation
// read in its better runs.
const maxPerRecord = 245

// TestRecStateIs48Bytes pins a record's state at rest to one Go size
// class: the decided log's buffer header, its index pointer, the
// boundary between entries and summary, the short-log entry count and
// the class lock, and the open pointer.
func TestRecStateIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(recState{}); got != 48 {
		t.Fatalf("recState is %d bytes, want 48", got)
	}
}

// residentWorld is a fresh storage node fed through the codec, the
// records it settles options on, and the options' running count.
type residentWorld struct {
	t    *testing.T
	cl   *topology.Cluster
	net  *codecNet
	n    *StorageNode
	keys []record.Key
	seq  int
	// update is the update each option carries: nil writes a physical
	// value at the round's read version (the first an insert).
	update func(key record.Key, round int) record.Update
}

// commutative makes every option an increment, so the records' class
// locks commutative and their decided logs keep an entry per option (a
// physical record keeps none).
func (w *residentWorld) commutative() *residentWorld {
	w.update = func(key record.Key, _ int) record.Update {
		return record.Commutative(key, map[string]int64{"n": 1})
	}
	return w
}

func newResidentWorld(t *testing.T) *residentWorld {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, ClientDC: -1})
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 0
	w := &residentWorld{t: t, cl: cl, net: &codecNet{}, keys: make([]record.Key, residentRecords)}
	w.n = NewStorageNode(cl.Storage[0].ID, cl.Storage[0].DC, w.net, cl, cfg, kv.NewMemory())
	for i := range w.keys {
		w.keys[i] = record.Key(fmt.Sprintf("res/%06d", i))
	}
	return w
}

// settleRound settles one option on every record, on the fast path.
// mint names each option: its transaction, coordinator and lineage
// sequence (0 numbers each record's options 1, 2, … on one lane).
func (w *residentWorld) settleRound(round int, mint func(rec, round, seq int) (TxID, transport.NodeID, uint64)) {
	for i, key := range w.keys {
		w.seq++
		tx, coord, keySeq := mint(i, round, w.seq)
		if keySeq == 0 {
			keySeq = uint64(round + 1)
		}
		up := record.Physical(key, record.Version(round), record.Value{Blob: []byte("8 bytes.")})
		if w.update != nil {
			up = w.update(key, round)
		}
		opt := Option{
			Tx: tx, Coord: coord, Update: up,
			WriteSet: []record.Key{key}, KeySeq: keySeq, WriteSeqs: []uint64{keySeq},
		}
		w.net.deliver(w.t, "c0", w.n.ID(), MsgProposeBatch{Opts: []Option{opt}})
		w.net.deliver(w.t, "c0", w.n.ID(), visibilityFor(opt, true))
	}
}

// atRest fails the test on a record that holds vote arrays or an open
// part after every one of its options settled on the fast path.
func (w *residentWorld) atRest() {
	w.n.eachRecord(func(key record.Key, r *recState) bool {
		if r.votes() != nil {
			w.t.Fatalf("%s has settled every option and still holds vote arrays", key)
		}
		if r.open != nil {
			w.t.Fatalf("%s has settled every option on the fast path and still holds its open part", key)
		}
		return true
	})
}

// liveHeap is the heap in use after two collections. It is signed: a
// physical record's first rewrite drops its insert's entry, so a later
// reading can be the smaller.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// structural is the exact state the node holds per record: its
// recState and its decided log's buffer capacity, summary included —
// a count no collector timing can move.
func (w *residentWorld) structural() float64 {
	total, records := 0, 0
	w.n.eachRecord(func(_ record.Key, r *recState) bool {
		total += int(unsafe.Sizeof(*r)) + cap(r.decided.buf)
		records++
		return true
	})
	return float64(total) / float64(records)
}

// oneLane mints every option on one coordinator lane.
func oneLane(_, _, seq int) (TxID, transport.NodeID, uint64) {
	return TxID(fmt.Sprintf("gw/us-west/c0#%d", seq)), "gw/us-west/c0", 0
}

// residentPerSettledOption settles perRecord options on each record
// of a fresh residentWorld and returns what the node retains per
// settled option and per touched record.
func residentPerSettledOption(t *testing.T, mint func(rec, round, seq int) (TxID, transport.NodeID, uint64)) (perOption, perRec, structural float64) {
	t.Helper()
	const (
		perRecord = 8 // options settled on each record
		created   = 2 // the insert, and the rewrite that locks the class physical
	)
	w := newResidentWorld(t)
	empty := liveHeap()
	for round := 0; round < created; round++ {
		w.settleRound(round, mint)
	}
	touched := liveHeap()
	for round := created; round < perRecord; round++ {
		w.settleRound(round, mint)
	}
	settled := liveHeap()

	if got := w.n.Metrics().Executed; got != residentRecords*perRecord {
		t.Fatalf("executed %d options, want %d", got, residentRecords*perRecord)
	}
	w.atRest()
	perOption = float64(settled-touched) / (residentRecords * (perRecord - created))
	perRec = float64(touched-empty)/residentRecords - created*perOption
	structural = w.structural()
	runtime.KeepAlive(w.n)
	return perOption, perRec, structural
}

// TestSyncReplyOpensNoShortRecord: an anti-entropy reply names every
// record it carries with the peer's summary of it, and only a decided
// log longer than decidedLimit, the only one compaction reads, keeps
// that summary. So a record settled a few times, after a reply naming
// it from each of its four peers, is still at rest — no open part —
// and still costs no more than TestResidentBytesPerSettledOption's
// per-record gate.
func TestSyncReplyOpensNoShortRecord(t *testing.T) {
	const rounds, created = 4, 2 // the insert and the first rewrite create the record
	w := newResidentWorld(t)
	empty := liveHeap()
	for round := 0; round < created; round++ {
		w.settleRound(round, oneLane)
	}
	touched := liveHeap()
	for round := created; round < rounds; round++ {
		w.settleRound(round, oneLane)
	}
	settled := liveHeap()

	// Each peer names every record at the node's own version and with
	// its own summary: nothing is adopted, only the peers' summaries
	// are news.
	reply := MsgSyncReply{ReqID: 1}
	for _, key := range w.keys {
		val, ver, _ := w.n.Store().GetEncoded(key)
		reply.Entries = append(reply.Entries, SyncEntry{Key: key, Value: val, Version: ver, Lineage: w.n.rs(key).decided.summary().unpack(&w.n.lanes)})
	}
	for _, peer := range w.cl.Storage[1:] {
		w.net.deliver(t, peer.ID, w.n.ID(), reply)
	}
	w.net.frame = nil // the reply's encoding
	synced := liveHeap()

	w.atRest()
	if got := w.n.Metrics().Synced; got != 0 {
		t.Fatalf("adopted %d bases it already held", got)
	}
	perOption := float64(settled-touched) / (residentRecords * (rounds - created))
	perRec := float64(synced-empty)/residentRecords - rounds*perOption
	t.Logf("after a sync reply from each of %d peers: %.0f B per record, %.0f B per settled option", len(w.cl.Storage)-1, perRec, perOption)
	if perRec > maxPerRecord {
		t.Errorf("%.0f B retained per record after the peers' sync replies, gate %d", perRec, maxPerRecord)
	}
	runtime.KeepAlive(w.n)
}

// TestSweepReleasesAckedEntries: one commutative record settles past
// decidedLimit, its first entries (the index is built among them) a retention period
// before the rest. Once a sync reply from each peer names the record
// with a summary holding every entry, the pending sweep's forced
// compaction releases exactly the entries aged past retention, counts
// each in DecidedReleased, and the record's summary still answers every
// one it released.
func TestSweepReleasesAckedEntries(t *testing.T) {
	const aged = 300
	w := newResidentWorld(t).commutative()
	w.keys = w.keys[:1]
	key := w.keys[0]
	retention := w.n.cfg.DecidedRetention
	round := 0
	for ; round < aged; round++ {
		w.settleRound(round, oneLane)
	}
	w.net.clock = retention + time.Second
	for ; round <= decidedLimit+8; round++ {
		w.settleRound(round, oneLane)
	}
	r := w.n.rs(key)
	val, ver, _ := w.n.Store().GetEncoded(key)
	reply := MsgSyncReply{ReqID: 1, Entries: []SyncEntry{{Key: key, Value: val, Version: ver, Lineage: r.decided.summary().unpack(&w.n.lanes)}}}
	for _, peer := range w.cl.Replicas(key) {
		if peer != w.n.ID() {
			w.net.deliver(t, peer, w.n.ID(), reply)
		}
	}
	w.net.clock += time.Second
	before := r.decided.len()
	w.n.sweepPending()
	released := before - r.decided.len()
	if released != aged {
		t.Fatalf("the sweep released %d of %d entries, want the %d aged past retention", released, before, aged)
	}
	if got := w.n.Metrics().DecidedReleased; got != int64(released) {
		t.Fatalf("DecidedReleased = %d after %d entries were released", got, released)
	}
	checkGauges(t, w.n)
	for seq := 1; seq <= round; seq++ {
		tx := TxID(fmt.Sprintf("gw/us-west/c0#%d", seq))
		if _, inLog := r.decided.entry(&w.n.lanes, key, tx); inLog != (seq > aged) {
			t.Fatalf("%s in the log: %v", tx, inLog)
		}
		if d, ok := w.n.settled(r, tx, uint64(seq)); !ok || d != DecAccept {
			t.Fatalf("%s settles as %v %v after the release", tx, d, ok)
		}
	}
}

// TestIndexedLogCapacityPerEntry: a record that settles as many options
// as the longest decided logs of the benchmark's hot-commute workload
// hold, 3 500 increments on eight rotating lanes, keeps its entries and
// summary in one buffer and its settle times in the index. What both
// hold in capacity, per entry, is gated at what they held before a
// physical record stopped keeping entries, which left commutative logs
// as they were: 91 656 B, 26.19 B per entry (a 57 344 B buffer with a
// 51 B summary inside it, and 4 289 time slots). 3 500 entries sit just
// past a growth step of the buffer, so the figure is the step's worst.
// The mean over every length from 128 entries on is logged, not gated:
// 24.21 B. The gate was 38.61 B per entry while the test settled
// physical rewrites, whose entries carry a value.
func TestIndexedLogCapacityPerEntry(t *testing.T) {
	const (
		entries     = 3500
		maxPerEntry = 91656.0 / entries
	)
	w := newResidentWorld(t).commutative()
	w.keys = w.keys[:1]
	r := w.n.rs(w.keys[0])
	var laneSeq [8]int
	mint := func(_, round, _ int) (TxID, transport.NodeID, uint64) {
		lane := round % len(laneSeq)
		laneSeq[lane]++
		coord := transport.NodeID(fmt.Sprintf("gw/us-west/c%d", lane))
		return TxID(fmt.Sprintf("%s~MG3X9K2A#%d", coord, laneSeq[lane])), coord, uint64(laneSeq[lane])
	}
	perEntry := func() float64 {
		return float64(cap(r.decided.buf)+8*cap(r.decided.idx.at)) / float64(r.decided.len())
	}
	span, samples := 0.0, 0
	for round := 0; round < entries; round++ {
		w.settleRound(round, mint)
		if r.decided.len() >= 128 {
			span += perEntry()
			samples++
		}
	}
	if r.decided.len() != entries {
		t.Fatalf("the log holds %d entries, want %d", r.decided.len(), entries)
	}
	got := perEntry()
	t.Logf("%d entries: %.2f B of capacity per entry (%d B buffer, %d B summary, %d time slots); %.2f B mean from 128 entries on",
		entries, got, cap(r.decided.buf), len(r.decided.summary()), cap(r.decided.idx.at), span/float64(samples))
	if got > maxPerEntry {
		t.Errorf("%.2f B of buffer and times per entry, gate %.2f", got, maxPerEntry)
	}
}

// leadLearned builds a Multi-mode node that masters the first record
// and leads decidedLimit+8 options on it through classic rounds, each a
// read check on one of two lanes; the first aged ones learned a
// retention period before the rest. With visible set each option's
// committing visibility follows its round, so the record settles it
// too. It returns the world, the record's leader state, the record's
// other replicas and the options in learning order.
func leadLearned(t *testing.T, aged int, visible bool) (*residentWorld, *leaderRec, []transport.NodeID, []Option) {
	t.Helper()
	w := newResidentWorld(t)
	self := w.cl.Storage[0]
	cfg := Defaults(ModeMulti)
	cfg.PendingTimeout = 0
	cfg.MasterDC = func(record.Key) topology.DC { return self.DC }
	w.n = NewStorageNode(self.ID, self.DC, w.net, w.cl, cfg, kv.NewMemory())
	key := w.keys[0]
	var peers []transport.NodeID
	for _, p := range w.cl.Replicas(key) {
		if p != self.ID {
			peers = append(peers, p)
		}
	}
	ldr := w.n.lr(key)
	if !ldr.owned {
		t.Fatal("the node does not master the record")
	}
	var opts []Option
	var laneSeq [2]uint64
	for i := 0; i < decidedLimit+8; i++ {
		if i == aged {
			w.net.clock = w.n.cfg.DecidedRetention + time.Second
		}
		lane := i % len(laneSeq)
		laneSeq[lane]++
		coord := transport.NodeID(fmt.Sprintf("gw/us-west/c%d", lane))
		opt := Option{
			Tx: TxID(fmt.Sprintf("%s#%d", coord, laneSeq[lane])), Coord: coord,
			Update:   record.ReadCheck(key, 0),
			WriteSet: []record.Key{key}, KeySeq: laneSeq[lane], WriteSeqs: []uint64{laneSeq[lane]},
		}
		w.net.deliver(t, coord, self.ID, MsgProposeLeader{Opt: opt})
		for _, p := range peers[:w.n.q.Classic] {
			w.net.deliver(t, p, self.ID, MsgPhase2b{Key: key, Ballot: ldr.ballot, Seq: ldr.seq, OK: true})
		}
		if visible {
			w.net.deliver(t, coord, self.ID, visibilityFor(opt, true))
		}
		opts = append(opts, opt)
	}
	return w, ldr, peers, opts
}

// TestLeaderKnowsTrimmedDecisions: a leader that learns past
// decidedLimit options, the first ones a retention period before the
// rest, trims the aged entries off its learned log, and its summary
// still answers every decision it learned: known answers each option,
// though no visibility reached the node, so its record settled none.
func TestLeaderKnowsTrimmedDecisions(t *testing.T) {
	const aged = 300
	w, ldr, _, opts := leadLearned(t, aged, false)
	trimmed := len(opts) - decidedLimit
	if got := ldr.learned.len(); got != decidedLimit {
		t.Fatalf("the learned log holds %d entries, want %d", got, decidedLimit)
	}
	r := w.n.rs(w.keys[0])
	for i, opt := range opts {
		if _, ok := w.n.settled(r, opt.Tx, opt.KeySeq); ok {
			t.Fatalf("the record settled %s, which no visibility carried", opt.Tx)
		}
		if _, ok := ldr.learned.entry(&w.n.lanes, w.keys[0], opt.Tx); ok != (i >= trimmed) {
			t.Fatalf("%s in the learned log: %v", opt.Tx, ok)
		}
		if d, ok := w.n.known(r, ldr, opt.Tx, opt.KeySeq); !ok || d != DecAccept {
			t.Fatalf("the leader knows %s as %v %v", opt.Tx, d, ok)
		}
	}
}

// TestSweepCompactsRecordAndLeaderLogs: in Multi mode the node masters
// a record and leads every option on it through a classic round, so the
// record's decided log and the leader's learned log both grow past
// decidedLimit, the first entries a retention period before the rest.
// The options are read checks: they leave the record's class unlocked,
// so its log keeps their entries (a physical record keeps none, and
// Multi mode refuses commutative updates).
// The learned log is held at decidedLimit by trim as it learns, and
// its summary still answers every option it learned. After a sync
// reply from each peer names
// the record with the node's own summary, the pending sweep's
// compaction releases the aged entries of the record's log: the summary
// behind them in the same buffer unpacks exactly as before, and settled
// answers every option as it did.
func TestSweepCompactsRecordAndLeaderLogs(t *testing.T) {
	const aged = 300
	w, ldr, peers, opts := leadLearned(t, aged, true)
	self, key := w.n.ID(), w.keys[0]
	r := w.n.rs(key)
	if got := r.decided.len(); got != len(opts) {
		t.Fatalf("the record's log holds %d entries, want %d", got, len(opts))
	}
	if got := ldr.learned.len(); got != decidedLimit {
		t.Fatalf("the learned log holds %d entries, want %d", got, decidedLimit)
	}
	for i, opt := range opts {
		if _, ok := ldr.learned.entry(&w.n.lanes, key, opt.Tx); ok != (i >= len(opts)-decidedLimit) {
			t.Fatalf("%s in the learned log: %v", opt.Tx, ok)
		}
		if d, ok := ldr.learned.decision(&w.n.lanes, opt.Tx, opt.KeySeq); !ok || d != DecAccept {
			t.Fatalf("the learned log's summary answers %s as %v %v", opt.Tx, d, ok)
		}
	}

	val, ver, _ := w.n.Store().GetEncoded(key)
	before := r.decided.summary().unpack(&w.n.lanes)
	reply := MsgSyncReply{ReqID: 1, Entries: []SyncEntry{{Key: key, Value: val, Version: ver, Lineage: before}}}
	for _, p := range peers {
		w.net.deliver(t, p, self, reply)
	}
	w.net.clock += time.Second
	w.n.sweepPending()

	if got := w.n.Metrics().DecidedReleased; got != aged {
		t.Fatalf("DecidedReleased = %d, want the %d entries aged past retention", got, aged)
	}
	if got := r.decided.len(); got != len(opts)-aged {
		t.Fatalf("the record's log holds %d entries after the sweep, want %d", got, len(opts)-aged)
	}
	checkGauges(t, w.n)
	if after := r.decided.summary().unpack(&w.n.lanes); !reflect.DeepEqual(after, before) {
		t.Fatalf("the summary unpacks to %s after the sweep, %s before", after, before)
	}
	for i, opt := range opts {
		if _, inLog := r.decided.entry(&w.n.lanes, key, opt.Tx); inLog != (i >= aged) {
			t.Fatalf("%s in the record's log: %v", opt.Tx, inLog)
		}
		if d, ok := w.n.settled(r, opt.Tx, opt.KeySeq); !ok || d != DecAccept {
			t.Fatalf("%s settles as %v %v after the sweep", opt.Tx, d, ok)
		}
	}
	if got := ldr.learned.len(); got != decidedLimit {
		t.Fatalf("the sweep moved the learned log to %d entries", got)
	}
}
