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
// layout. Measured go1.24, amd64: 110 B per option and 548 B per record
// — its state, its stored value and its key, in a run that also fills
// the key intern table (459 B in one that does not). That was 772 B
// while every record that had ever voted kept a cleared 192-byte vote
// slot and the store held a record.Value per key, and 1660 B before
// that, with a map of whole Options per record. A settled record holds
// no vote arrays at all, which the test asserts record by record.
func TestResidentBytesPerSettledOption(t *testing.T) {
	const (
		records   = 2000
		perRecord = 8 // options settled on each record, the first an insert

		maxPerOption = 240
		maxPerRecord = 700
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
		for _, key := range keys {
			seq++
			opt := Option{
				Tx: TxID(fmt.Sprintf("gw/us-west/c0#%d", seq)), Coord: "gw/us-west/c0",
				Update:   record.Physical(key, record.Version(round), record.Value{Blob: []byte("8 bytes.")}),
				WriteSet: []record.Key{key}, KeySeq: uint64(round + 1), WriteSeqs: []uint64{uint64(round + 1)},
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
		if r.votes != nil || r.votedAt != nil {
			t.Fatalf("%s has settled every option and still holds vote arrays (cap %d, %d)", key, cap(r.votes), cap(r.votedAt))
		}
	}
	perOption := float64(settled-touched) / (records * (perRecord - 1))
	perRec := float64(touched-empty)/records - perOption
	t.Logf("resident: %.0f B per settled option, %.0f B per record", perOption, perRec)
	if perOption > maxPerOption {
		t.Errorf("%.0f B retained per settled option, gate %d", perOption, maxPerOption)
	}
	if perRec > maxPerRecord {
		t.Errorf("%.0f B retained per touched record, gate %d", perRec, maxPerRecord)
	}
}
