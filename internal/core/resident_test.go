package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mdcc/internal/clock"
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// codecNet is the least network a storage node runs on: it hands the
// node every message through the wire codec — so what the node retains
// is what a TCP node retains, each message its own allocations — sends
// nowhere and arms no timer.
type codecNet struct {
	handler transport.Handler
	frame   []byte
}

type inertTimer struct{}

func (inertTimer) Stop() bool { return false }

func (n *codecNet) Register(_ transport.NodeID, h transport.Handler)          { n.handler = h }
func (n *codecNet) Send(_, _ transport.NodeID, _ transport.Message)           {}
func (n *codecNet) After(transport.NodeID, time.Duration, func()) clock.Timer { return inertTimer{} }
func (n *codecNet) Now() time.Time                                            { return time.Unix(1, 0) }

func (n *codecNet) deliver(t *testing.T, to transport.NodeID, msg transport.Message) {
	var err error
	n.frame, err = transport.AppendEnvelope(n.frame[:0], transport.Envelope{From: "c0", To: to, Msg: msg})
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
// of the live deployment — with SyncInterval 0 a decided-log entry is
// never released — so they are pinned like the wire allocation gates.
// The option path is the fast path's: one ProposeBatch, one
// Visibility, both through the codec. Values carry a blob and no
// attributes, so no map is allocated per record or per option anywhere
// on the path and the figures do not depend on the runtime's map
// layout.
//
// The one-lane arm settles every option on one coordinator lane.
// Measured go1.24, amd64: 25 B per option — the entry's own bytes in the
// record's packed log, its transaction id a lane index and a sequence
// and its update without the record's key — and 361 B per record: its
// state, its stored value and its key, in a run that also fills the key
// intern table. It was 53 B per option while each entry held its
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
// reads 30 B per option: the entry, plus the lane's few bytes in the
// packed summary, both naming the lane by its index in the node's lane
// table. It was 66 B while the entry held its transaction id in full,
// 142 B while each lane took a LaneLineage slot and a Done range of its
// own, and 198 B while each lane's name was a substring of a
// transaction id that its bytes kept alive.
func TestResidentBytesPerSettledOption(t *testing.T) {
	const (
		maxPerOption      = 40
		maxPerRecord      = 450
		maxPerOptionLanes = 50
		lanes             = 16
	)
	perOption, perRec := residentPerSettledOption(t, func(_, _, seq int) (TxID, transport.NodeID, uint64) {
		return TxID(fmt.Sprintf("gw/us-west/c0#%d", seq)), "gw/us-west/c0", 0
	})
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

// residentPerSettledOption settles perRecord options on each of 2000
// records through the codec on a fresh storage node and returns what
// the node retains per settled option and per touched record. mint
// names each option: its transaction, coordinator and lineage sequence
// (0 numbers each record's options 1, 2, … on one lane).
func residentPerSettledOption(t *testing.T, mint func(rec, round, seq int) (TxID, transport.NodeID, uint64)) (perOption, perRec float64) {
	t.Helper()
	const (
		records   = 2000
		perRecord = 8 // options settled on each record, the first an insert
	)
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, ClientDC: -1})
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 0
	net := &codecNet{}
	id := cl.Storage[0].ID
	n := NewStorageNode(id, cl.Storage[0].DC, net, cl, cfg, kv.NewMemory())

	keys := make([]record.Key, records)
	for i := range keys {
		keys[i] = record.Key(fmt.Sprintf("res/%06d", i))
	}
	seq := 0
	settleRound := func(round int) {
		for i, key := range keys {
			seq++
			tx, coord, keySeq := mint(i, round, seq)
			if keySeq == 0 {
				keySeq = uint64(round + 1)
			}
			opt := Option{
				Tx: tx, Coord: coord,
				Update:   record.Physical(key, record.Version(round), record.Value{Blob: []byte("8 bytes.")}),
				WriteSet: []record.Key{key}, KeySeq: keySeq, WriteSeqs: []uint64{keySeq},
			}
			net.deliver(t, id, MsgProposeBatch{Opts: []Option{opt}})
			net.deliver(t, id, visibilityFor(opt, true))
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	empty := live()
	settleRound(0)
	touched := live()
	for round := 1; round < perRecord; round++ {
		settleRound(round)
	}
	settled := live()

	if got := n.Metrics().Executed; got != records*perRecord {
		t.Fatalf("executed %d options, want %d", got, records*perRecord)
	}
	for key, r := range n.recs {
		if r.votes() != nil {
			t.Fatalf("%s has settled every option and still holds vote arrays", key)
		}
		if r.open != nil {
			t.Fatalf("%s has settled every option on the fast path and still holds its open part", key)
		}
	}
	perOption = float64(settled-touched) / (records * (perRecord - 1))
	perRec = float64(touched-empty)/records - perOption
	runtime.KeepAlive(n)
	return perOption, perRec
}
