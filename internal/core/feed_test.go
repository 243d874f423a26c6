package core

import (
	"testing"
	"time"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// feedWorld is one storage node plus a fake subscriber on the
// deterministic simulator.
type feedWorld struct {
	net  *simnet.Net
	node *StorageNode
	cl   *topology.Cluster

	msgs []MsgVisibilityFeed
}

func newFeedWorld(t *testing.T) *feedWorld {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	net := simnet.New(simnet.Options{Seed: 1})
	cfg := Defaults(ModeMDCC)
	cfg.Constraints = []record.Constraint{record.MinBound("units", 0)}
	w := &feedWorld{net: net, cl: cl}
	// Only the us-west replica matters; the fake subscriber collects
	// its stream.
	for _, n := range cl.Storage {
		node := NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory())
		if n.DC == topology.USWest {
			w.node = node
		}
	}
	net.Register("sub", func(env transport.Envelope) {
		if m, ok := env.Msg.(MsgVisibilityFeed); ok {
			w.msgs = append(w.msgs, m)
		}
	})
	return w
}

func (w *feedWorld) subscribe(epoch uint64, catchUp ...record.Key) {
	w.net.At(0, func() {
		w.net.Send("sub", w.node.ID(), MsgVisibilitySub{Epoch: epoch, CatchUp: catchUp})
	})
	w.net.RunFor(100 * time.Millisecond)
}

// TestFeedHelloAndVisibilityStream pins the publisher basics: the
// hello answers with seq 1 and the requested catch-up state; each
// dispatch that changes committed state produces one in-order feed
// message whose items carry value, version and escrow.
func TestFeedHelloAndVisibilityStream(t *testing.T) {
	w := newFeedWorld(t)
	key := record.Key("stock/feed")
	_ = w.node.Store().Put(key, record.Value{Attrs: map[string]int64{"units": 10}}, 1)
	w.subscribe(7, key)

	if len(w.msgs) != 1 {
		t.Fatalf("hello count = %d", len(w.msgs))
	}
	hello := w.msgs[0]
	if hello.Epoch != 7 || hello.Seq != 1 || len(hello.Items) != 1 {
		t.Fatalf("hello = %+v", hello)
	}
	it := hello.Items[0]
	if it.Key != key || it.Version != 1 || !it.Exists || it.Value.Decode().Attr("units") != 10 {
		t.Fatalf("catch-up item = %+v", it)
	}
	if !it.Escrow.Valid || it.Escrow.Attrs[0].Base != 10 {
		t.Fatalf("catch-up escrow = %+v", it.Escrow)
	}

	// A committed option's visibility dirties the key and flushes one
	// in-order message at dispatch end.
	opt := Option{Tx: "t#1", Coord: "", Update: record.Commutative(key, map[string]int64{"units": -3})}
	w.net.At(0, func() {
		w.net.Send("driver", w.node.ID(), MsgProposeFast{Opt: opt})
	})
	w.net.RunFor(100 * time.Millisecond)
	w.net.At(0, func() {
		w.net.Send("driver", w.node.ID(), MsgVisibility{Opt: opt, Commit: true})
	})
	w.net.RunFor(100 * time.Millisecond)

	last := w.msgs[len(w.msgs)-1]
	if last.Seq != hello.Seq+uint64(len(w.msgs)-1) {
		t.Fatalf("stream not contiguous: %+v", w.msgs)
	}
	found := false
	for _, m := range w.msgs[1:] {
		for _, it := range m.Items {
			if it.Key == key && it.Version == 2 && it.Value.Decode().Attr("units") == 7 {
				found = true
				if !it.Escrow.Valid {
					t.Fatalf("feed item without escrow under constraints: %+v", it)
				}
			}
		}
	}
	if !found {
		t.Fatalf("committed visibility never reached the feed: %+v", w.msgs)
	}
}

// TestFeedKeepAliveBoundsSilence: with no traffic at all, the
// publisher still proves the stream alive at the keepalive cadence —
// the property the gateway's staleness bound (its feed TTL) rests on.
func TestFeedKeepAliveBoundsSilence(t *testing.T) {
	w := newFeedWorld(t)
	w.subscribe(1)
	n0 := len(w.msgs)
	w.net.RunFor(3 * time.Second) // 6 keepalive intervals, zero traffic
	got := len(w.msgs) - n0
	if got < 4 {
		t.Fatalf("only %d keepalives in 3s of silence (interval 500ms)", got)
	}
	for i := 1; i < len(w.msgs); i++ {
		if w.msgs[i].Seq != w.msgs[i-1].Seq+1 {
			t.Fatalf("keepalive stream not contiguous: %+v", w.msgs)
		}
	}
}

// TestFeedDuplicateSubKeepsStreamContiguous pins the retransmission
// hazard: a duplicated subscription (same epoch) must not reset the
// sequence numbering — renumbering would let a later real item land
// on an already-consumed sequence number and be dropped as stale,
// which is silent staleness the sequence check exists to prevent. The
// duplicate is answered in-stream with fresh catch-up instead.
func TestFeedDuplicateSubKeepsStreamContiguous(t *testing.T) {
	w := newFeedWorld(t)
	key := record.Key("stock/dup")
	_ = w.node.Store().Put(key, record.Value{Attrs: map[string]int64{"units": 5}}, 1)
	w.subscribe(3, key)
	w.subscribe(3, key) // retransmitted duplicate
	if len(w.msgs) != 2 {
		t.Fatalf("msgs = %+v", w.msgs)
	}
	if w.msgs[0].Seq != 1 || w.msgs[1].Seq != 2 {
		t.Fatalf("duplicate sub reset the stream: seqs %d,%d", w.msgs[0].Seq, w.msgs[1].Seq)
	}
	if len(w.msgs[1].Items) != 1 || w.msgs[1].Items[0].Version != 1 {
		t.Fatalf("duplicate sub not answered with catch-up: %+v", w.msgs[1])
	}
	// A NEW epoch (real resubscription) does restart the numbering.
	w.subscribe(4, key)
	last := w.msgs[len(w.msgs)-1]
	if last.Epoch != 4 || last.Seq != 1 {
		t.Fatalf("new-epoch hello = %+v", last)
	}
	// A delayed OLDER-epoch subscription (epochs only ever increase on
	// the subscriber) must be ignored entirely: regressing would wipe
	// the live epoch's interest set and renumber its stream into
	// discard-as-stale territory, silencing the feed until TTL.
	n := len(w.msgs)
	w.subscribe(3, key)
	if len(w.msgs) != n {
		t.Fatalf("stale-epoch subscription was answered: %+v", w.msgs[len(w.msgs)-1])
	}
	w.subscribe(4, key) // the live epoch still serves
	if last := w.msgs[len(w.msgs)-1]; last.Epoch != 4 || last.Seq != 2 {
		t.Fatalf("live epoch disturbed by the stale sub: %+v", last)
	}
}

// TestFeedStreamsOnlyInterestKeys pins the cost model: the feed
// streams the subscriber's registered working set and nothing else —
// a write-only workload (empty interest) costs keepalives only, and
// an in-stream interest-add starts coverage for exactly that key.
func TestFeedStreamsOnlyInterestKeys(t *testing.T) {
	w := newFeedWorld(t)
	hot := record.Key("stock/hot")
	cold := record.Key("stock/cold")
	_ = w.node.Store().Put(hot, record.Value{Attrs: map[string]int64{"units": 10}}, 1)
	_ = w.node.Store().Put(cold, record.Value{Attrs: map[string]int64{"units": 10}}, 1)
	w.subscribe(1, hot) // interest: hot only

	commitVia := func(key record.Key, tx string) {
		opt := Option{Tx: TxID(tx), Update: record.Commutative(key, map[string]int64{"units": -1})}
		w.net.At(0, func() { w.net.Send("driver", w.node.ID(), MsgProposeFast{Opt: opt}) })
		w.net.RunFor(50 * time.Millisecond)
		w.net.At(0, func() { w.net.Send("driver", w.node.ID(), MsgVisibility{Opt: opt, Commit: true}) })
		w.net.RunFor(50 * time.Millisecond)
	}
	commitVia(cold, "t#cold")
	commitVia(hot, "t#hot")
	sawCold, sawHot := false, false
	for _, m := range w.msgs {
		for _, it := range m.Items {
			if it.Key == cold {
				sawCold = true
			}
			if it.Key == hot && it.Version == 2 {
				sawHot = true
			}
		}
	}
	if sawCold {
		t.Fatalf("non-interest key streamed: %+v", w.msgs)
	}
	if !sawHot {
		t.Fatalf("interest key not streamed: %+v", w.msgs)
	}
	// In-stream interest-add (same epoch) starts coverage for cold.
	w.subscribe(1, cold)
	commitVia(cold, "t#cold2")
	sawCold = false
	for _, m := range w.msgs {
		for _, it := range m.Items {
			if it.Key == cold && it.Version == 3 {
				sawCold = true
			}
		}
	}
	if !sawCold {
		t.Fatalf("interest-added key not streamed: %+v", w.msgs)
	}
}

// TestFeedInterestCapRejectsWithoutEcho pins the capacity edge: a
// key arriving past the interest cap must be neither registered nor
// echoed — the echo is the subscriber's proof of stream coverage, so
// echoing an unregistered key would license serving a memory copy the
// stream will never refresh (silent unbounded staleness).
func TestFeedInterestCapRejectsWithoutEcho(t *testing.T) {
	old := feedInterestMax
	feedInterestMax = 2
	defer func() { feedInterestMax = old }()

	w := newFeedWorld(t)
	for _, k := range []record.Key{"cap/a", "cap/b", "cap/c"} {
		_ = w.node.Store().Put(k, record.Value{Attrs: map[string]int64{"units": 1}}, 1)
	}
	w.subscribe(1, "cap/a", "cap/b")
	w.subscribe(1, "cap/c") // over the cap: must be rejected
	last := w.msgs[len(w.msgs)-1]
	for _, it := range last.Items {
		if it.Key == "cap/c" {
			t.Fatalf("over-cap key echoed (would be confirmed but never streamed): %+v", last)
		}
	}
	// Registered keys keep full service, including re-echo on a
	// duplicate add.
	w.subscribe(1, "cap/a")
	last = w.msgs[len(w.msgs)-1]
	if len(last.Items) != 1 || last.Items[0].Key != "cap/a" {
		t.Fatalf("registered key not re-echoed at the cap: %+v", last)
	}
}

// TestFeedMessagesSurviveTransports ships a feed message (and a
// floored gateway read request) over the wire the way TCP deployments
// do, asserting every field survives.
func TestFeedMessagesSurviveTransports(t *testing.T) {
	payload := func() transport.Message {
		return transport.Batch{Items: []transport.Envelope{
			{From: "store", To: "gw", Msg: MsgVisibilityFeed{
				Epoch: 9, Seq: 42, Boot: 1234,
				Items: []FeedItem{{
					Key:     "stock/1",
					Value:   record.Encode(record.Value{Attrs: map[string]int64{"units": 13}}),
					Version: 77,
					Exists:  true,
					Escrow: EscrowSnap{Valid: true, Version: 77,
						Attrs: []AttrEscrow{{Attr: "units", Base: 13, PendDown: -2, PendUp: 1}}},
				}},
			}},
			{From: "gw", To: "store", Msg: MsgVisibilitySub{Epoch: 9, CatchUp: []record.Key{"stock/1", "stock/2"}}},
		}}
	}
	verify := func(t *testing.T, env transport.Envelope) {
		t.Helper()
		b, ok := env.Msg.(transport.Batch)
		if !ok {
			t.Fatalf("expected Batch, got %T", env.Msg)
		}
		feed := b.Items[0].Msg.(MsgVisibilityFeed)
		if feed.Epoch != 9 || feed.Seq != 42 || feed.Boot != 1234 || len(feed.Items) != 1 {
			t.Fatalf("feed mangled: %+v", feed)
		}
		it := feed.Items[0]
		if it.Key != "stock/1" || it.Version != 77 || !it.Exists ||
			it.Value.Decode().Attr("units") != 13 || !it.Escrow.Valid || it.Escrow.Attrs[0].PendDown != -2 {
			t.Fatalf("feed item mangled: %+v", it)
		}
		sub := b.Items[1].Msg.(MsgVisibilitySub)
		if sub.Epoch != 9 || len(sub.CatchUp) != 2 || sub.CatchUp[1] != "stock/2" {
			t.Fatalf("sub mangled: %+v", sub)
		}
	}

	t.Run("tcp", func(t *testing.T) {
		recv := transport.NewTCP(nil)
		addr, err := recv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		ch := make(chan transport.Envelope, 1)
		recv.Register("gw", func(env transport.Envelope) { ch <- env })
		send := transport.NewTCP(map[transport.NodeID]string{"gw": addr})
		defer send.Close()
		send.Send("store", "gw", payload())
		select {
		case env := <-ch:
			verify(t, env)
		case <-time.After(5 * time.Second):
			t.Fatal("nothing delivered over TCP")
		}
	})

	t.Run("local", func(t *testing.T) {
		net := transport.NewLocal(nil)
		defer net.Close()
		ch := make(chan transport.Envelope, 1)
		net.Register("gw", func(env transport.Envelope) { ch <- env })
		net.Register("store", func(transport.Envelope) {})
		net.Send("store", "gw", payload())
		select {
		case env := <-ch:
			verify(t, env)
		case <-time.After(5 * time.Second):
			t.Fatal("nothing delivered over Local")
		}
	})
}
