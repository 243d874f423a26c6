package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

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
// settled and per record it has ever touched. Both are the steady cost
// of the live deployment — a decided log of decidedLimit entries or
// fewer is never compacted, so its entries are never released — so
// they are pinned like the wire allocation gates.
// The option path is the fast path's: one ProposeBatch, one
// Visibility, both through the codec. Values carry a blob and no
// attributes, so no map is allocated per record or per option anywhere
// on the path and the figures do not depend on the runtime's map
// layout.
//
// The one-lane arm settles every option on one coordinator lane.
// Measured go1.24, amd64: 19 B per option — the entry's own bytes in the
// record's packed log, its transaction id a lane index and a sequence
// and its update without the record's key — and 320 B per record: its
// state, its stored value and its key, in a run that also fills the key
// intern table. It was 27 B per option (25 B in an earlier run) while
// each entry also held an eight-byte settle time, which only the index
// of a log long enough to compact keeps now, 53 B while each entry held its
// transaction id and its update's key in full, 110 B while each entry
// was a 64-byte slot beside an encoded-update allocation, pinning its
// wire-decoded transaction id, and 360 B before that, with a map of
// whole Options per record. The record was 548 B while its state was
// one 208-byte struct holding both ballots, the vote arrays' headers and
// an unpacked lineage summary with a 64-byte slot and a range array per
// lane; a record at rest now keeps 80 bytes of state and a packed
// summary. A settled record holds no open part (and so no vote arrays),
// which the test asserts record by record.
//
// The many-lanes arm is sixteen coordinators (gateways' and sessions')
// with incarnation tokens, each record's options on rotating lanes, so
// every option also opens a lane in the record's lineage summary. It
// reads 24 B per option: the entry, plus the lane's few bytes in the
// packed summary, both naming the lane by its index in the node's lane
// table. It was 32 B (30 B in an earlier run) while the entry held its
// settle time, 66 B while the entry held its transaction id in full,
// 142 B while each lane took a LaneLineage slot and a Done range of its
// own, and 198 B while each lane's name was a substring of a
// transaction id that its bytes kept alive.
func TestResidentBytesPerSettledOption(t *testing.T) {
	const (
		maxPerOption      = 30
		maxPerRecord      = 450
		maxPerOptionLanes = 40
		lanes             = 16
	)
	perOption, perRec := residentPerSettledOption(t, oneLane)
	t.Logf("one lane: %.0f B per settled option, %.0f B per record", perOption, perRec)
	if perOption > maxPerOption {
		t.Errorf("one lane: %.0f B retained per settled option, gate %d", perOption, maxPerOption)
	}
	if perRec > maxPerRecord {
		t.Errorf("one lane: %.0f B retained per touched record, gate %d", perRec, maxPerRecord)
	}

	var laneSeq [lanes]int
	perOption, _ = residentPerSettledOption(t, func(rec, round, _ int) (TxID, transport.NodeID, uint64) {
		// Fewer rounds than lanes: each lane proposes on a record once,
		// so its per-key sequence is 1.
		lane := (rec + round) % lanes
		laneSeq[lane]++
		coord := transport.NodeID(fmt.Sprintf("gw/us-west/c%d", lane))
		return TxID(fmt.Sprintf("%s~MG3X9K2A#%d", coord, laneSeq[lane])), coord, 1
	})
	t.Logf("%d lanes: %.0f B per settled option", lanes, perOption)
	if perOption > maxPerOptionLanes {
		t.Errorf("%d lanes: %.0f B retained per settled option, gate %d", lanes, perOption, maxPerOptionLanes)
	}
}

// residentRecords is how many records the resident-bytes gates settle
// options on.
const residentRecords = 2000

// residentWorld is a fresh storage node fed through the codec, the
// records it settles options on, and the options' running count.
type residentWorld struct {
	t    *testing.T
	cl   *topology.Cluster
	net  *codecNet
	n    *StorageNode
	keys []record.Key
	seq  int
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
		opt := Option{
			Tx: tx, Coord: coord,
			Update:   record.Physical(key, record.Version(round), record.Value{Blob: []byte("8 bytes.")}),
			WriteSet: []record.Key{key}, KeySeq: keySeq, WriteSeqs: []uint64{keySeq},
		}
		w.net.deliver(w.t, "c0", w.n.ID(), MsgProposeBatch{Opts: []Option{opt}})
		w.net.deliver(w.t, "c0", w.n.ID(), visibilityFor(opt, true))
	}
}

// atRest fails the test on a record that holds vote arrays or an open
// part after every one of its options settled on the fast path.
func (w *residentWorld) atRest() {
	for key, r := range w.n.recs {
		if r.votes() != nil {
			w.t.Fatalf("%s has settled every option and still holds vote arrays", key)
		}
		if r.open != nil {
			w.t.Fatalf("%s has settled every option on the fast path and still holds its open part", key)
		}
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// oneLane mints every option on one coordinator lane.
func oneLane(_, _, seq int) (TxID, transport.NodeID, uint64) {
	return TxID(fmt.Sprintf("gw/us-west/c0#%d", seq)), "gw/us-west/c0", 0
}

// residentPerSettledOption settles perRecord options on each record
// of a fresh residentWorld and returns what the node retains per
// settled option and per touched record.
func residentPerSettledOption(t *testing.T, mint func(rec, round, seq int) (TxID, transport.NodeID, uint64)) (perOption, perRec float64) {
	t.Helper()
	const perRecord = 8 // options settled on each record, the first an insert
	w := newResidentWorld(t)
	empty := liveHeap()
	w.settleRound(0, mint)
	touched := liveHeap()
	for round := 1; round < perRecord; round++ {
		w.settleRound(round, mint)
	}
	settled := liveHeap()

	if got := w.n.Metrics().Executed; got != residentRecords*perRecord {
		t.Fatalf("executed %d options, want %d", got, residentRecords*perRecord)
	}
	w.atRest()
	perOption = float64(settled-touched) / (residentRecords * (perRecord - 1))
	perRec = float64(touched-empty)/residentRecords - perOption
	runtime.KeepAlive(w.n)
	return perOption, perRec
}

// TestSyncReplyOpensNoShortRecord: an anti-entropy reply names every
// record it carries with the peer's summary of it, and only a decided
// log longer than decidedLimit, the only one compaction reads, keeps
// that summary. So a record settled a few times, after a reply naming
// it from each of its four peers, is still at rest — no open part —
// and still costs no more than TestResidentBytesPerSettledOption's
// per-record gate.
func TestSyncReplyOpensNoShortRecord(t *testing.T) {
	const (
		rounds       = 4
		maxPerRecord = 450
	)
	w := newResidentWorld(t)
	empty := liveHeap()
	w.settleRound(0, oneLane)
	touched := liveHeap()
	for round := 1; round < rounds; round++ {
		w.settleRound(round, oneLane)
	}
	settled := liveHeap()

	// Each peer names every record at the node's own version and with
	// its own summary: nothing is adopted, only the peers' summaries
	// are news.
	reply := MsgSyncReply{ReqID: 1}
	for _, key := range w.keys {
		val, ver, _ := w.n.Store().GetEncoded(key)
		reply.Entries = append(reply.Entries, SyncEntry{Key: key, Value: val, Version: ver, Lineage: w.n.rs(key).summary.unpack(&w.n.lanes)})
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
	perOption := float64(settled-touched) / (residentRecords * (rounds - 1))
	perRec := float64(synced-empty)/residentRecords - rounds*perOption
	t.Logf("after a sync reply from each of %d peers: %.0f B per record, %.0f B per settled option", len(w.cl.Storage)-1, perRec, perOption)
	if perRec > maxPerRecord {
		t.Errorf("%.0f B retained per record after the peers' sync replies, gate %d", perRec, maxPerRecord)
	}
	runtime.KeepAlive(w.n)
}

// TestSweepReleasesAckedEntries: one record settles past decidedLimit,
// its first entries (the index is built among them) a retention period
// before the rest. Once a sync reply from each peer names the record
// with a summary holding every entry, the pending sweep's forced
// compaction releases exactly the entries aged past retention, counts
// each in DecidedReleased, and the record's summary still answers every
// one it released.
func TestSweepReleasesAckedEntries(t *testing.T) {
	const aged = 300
	w := newResidentWorld(t)
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
	reply := MsgSyncReply{ReqID: 1, Entries: []SyncEntry{{Key: key, Value: val, Version: ver, Lineage: r.summary.unpack(&w.n.lanes)}}}
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
	for seq := 1; seq <= round; seq++ {
		tx := TxID(fmt.Sprintf("gw/us-west/c0#%d", seq))
		if _, inLog := r.decided.get(&w.n.lanes, tx); inLog != (seq > aged) {
			t.Fatalf("%s in the log: %v", tx, inLog)
		}
		if d, ok := w.n.settled(r, tx, uint64(seq)); !ok || d != DecAccept {
			t.Fatalf("%s settles as %v %v after the release", tx, d, ok)
		}
	}
}
