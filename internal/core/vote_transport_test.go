package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/transport"
)

// sampleVote builds a Phase2b vote with every piggyback field set to
// a distinctive value.
func sampleVote(seq int) MsgVote {
	return MsgVote{
		OptID:    OptionID{Tx: TxID(fmt.Sprintf("tx#%d", seq)), Key: "stock/1"},
		Decision: DecAccept,
		Escrow: EscrowSnap{
			Valid:      true,
			Version:    record.Version(100 + seq),
			Contenders: 2 + seq%3,
			Attrs: []AttrEscrow{
				{Attr: "units", Base: int64(500 + seq), PendDown: -7, PendUp: 3},
				{Attr: "bal", Base: 42, PendDown: 0, PendUp: 11},
			},
		},
	}
}

func checkVote(t *testing.T, got MsgVote, seq int) {
	t.Helper()
	want := sampleVote(seq)
	if got.OptID != want.OptID || got.Decision != want.Decision {
		t.Fatalf("vote identity mangled: got %+v want %+v", got, want)
	}
	e := got.Escrow
	if !e.Valid || e.Version != want.Escrow.Version || len(e.Attrs) != 2 ||
		e.Contenders != want.Escrow.Contenders {
		t.Fatalf("escrow snapshot mangled: %+v", e)
	}
	for i, a := range want.Escrow.Attrs {
		if e.Attrs[i] != a {
			t.Fatalf("escrow attr %d: got %+v want %+v", i, e.Attrs[i], a)
		}
	}
}

// TestEscrowPiggybackSurvivesTransports ships a vote batch inside a
// transport.Batch envelope — the exact shape the acceptor's vote
// batching produces — through all three transports and asserts every
// piggyback field survives, including TCP's wire round-trip.
func TestEscrowPiggybackSurvivesTransports(t *testing.T) {
	payload := func() transport.Message {
		return transport.Batch{Items: []transport.Envelope{
			{From: "acceptor", To: "coord", Msg: MsgVoteBatch{Votes: []MsgVote{sampleVote(1)}}},
			{From: "acceptor", To: "coord", Msg: MsgVoteBatch{Votes: []MsgVote{sampleVote(2), sampleVote(3)}}},
			{From: "acceptor", To: "coord", Msg: MsgReadReply{
				ReqID: 9, Key: "stock/1", Version: 77, Exists: true,
				Escrow: sampleVote(4).Escrow,
			}},
		}}
	}
	verify := func(t *testing.T, env transport.Envelope) {
		b, ok := env.Msg.(transport.Batch)
		if !ok {
			t.Fatalf("expected Batch, got %T", env.Msg)
		}
		if len(b.Items) != 3 {
			t.Fatalf("batch carried %d items, want 3", len(b.Items))
		}
		checkVote(t, b.Items[0].Msg.(MsgVoteBatch).Votes[0], 1)
		vb := b.Items[1].Msg.(MsgVoteBatch)
		checkVote(t, vb.Votes[0], 2)
		checkVote(t, vb.Votes[1], 3)
		rr := b.Items[2].Msg.(MsgReadReply)
		if !rr.Escrow.Valid || rr.Escrow.Version != 104 || rr.Escrow.Attrs[0].Base != 504 {
			t.Fatalf("read-reply escrow mangled: %+v", rr.Escrow)
		}
	}

	t.Run("simnet", func(t *testing.T) {
		net := simnet.New(simnet.Options{Seed: 1})
		var got *transport.Envelope
		net.Register("coord", func(env transport.Envelope) { got = &env })
		net.At(0, func() { net.Send("acceptor", "coord", payload()) })
		net.RunFor(time.Second)
		if got == nil {
			t.Fatal("nothing delivered")
		}
		verify(t, *got)
	})

	t.Run("local", func(t *testing.T) {
		net := transport.NewLocal(nil)
		defer net.Close()
		ch := make(chan transport.Envelope, 1)
		net.Register("coord", func(env transport.Envelope) { ch <- env })
		net.Register("acceptor", func(transport.Envelope) {})
		net.Send("acceptor", "coord", payload())
		select {
		case env := <-ch:
			verify(t, env)
		case <-time.After(5 * time.Second):
			t.Fatal("nothing delivered")
		}
	})

	t.Run("tcp", func(t *testing.T) {
		recv := transport.NewTCP(nil)
		addr, err := recv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer recv.Close()
		ch := make(chan transport.Envelope, 1)
		recv.Register("coord", func(env transport.Envelope) { ch <- env })
		send := transport.NewTCP(map[transport.NodeID]string{"coord": addr})
		defer send.Close()
		send.Send("acceptor", "coord", payload())
		select {
		case env := <-ch:
			verify(t, env)
		case <-time.After(5 * time.Second):
			t.Fatal("nothing delivered over TCP")
		}
	})
}

// TestTCPBatchedVoteOrderingAfterReconnect extends the transport
// ordering checks to batched Phase2b votes: interleaved one-vote and
// two-vote batches and batch envelopes from one acceptor must arrive in
// send order even when the connection is torn down mid-stream (a
// reordered or replayed vote stream is exactly what the acceptor's
// proposal-sequence and the coordinator's dedup guard against — the
// transport must not manufacture such streams).
func TestTCPBatchedVoteOrderingAfterReconnect(t *testing.T) {
	recv := transport.NewTCP(nil)
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var mu sync.Mutex
	var seqs []int
	var escrowSeen int
	record1 := func(v MsgVote) {
		var n int
		fmt.Sscanf(string(v.OptID.Tx), "tx#%d", &n)
		seqs = append(seqs, n)
		if v.Escrow.Valid {
			escrowSeen++
		}
	}
	recv.Register("coord", func(env transport.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		switch m := env.Msg.(type) {
		case transport.Batch:
			for _, item := range m.Items {
				for _, v := range item.Msg.(MsgVoteBatch).Votes {
					record1(v)
				}
			}
		case MsgVoteBatch:
			for _, v := range m.Votes {
				record1(v)
			}
		}
	})

	send := transport.NewTCP(map[transport.NodeID]string{"coord": addr})
	defer send.Close()

	const total = 300
	seq := 0
	sendSome := func(n int) {
		for sent := 0; sent < n && seq < total; {
			switch seq % 3 {
			case 0:
				send.Send("acceptor", "coord", MsgVoteBatch{Votes: []MsgVote{sampleVote(seq)}})
				seq++
				sent++
			case 1:
				vb := MsgVoteBatch{Votes: []MsgVote{sampleVote(seq), sampleVote(seq + 1)}}
				send.Send("acceptor", "coord", vb)
				seq += 2
				sent += 2
			default:
				b := transport.Batch{Items: []transport.Envelope{
					{From: "acceptor", To: "coord", Msg: MsgVoteBatch{Votes: []MsgVote{sampleVote(seq)}}},
					{From: "acceptor", To: "coord", Msg: MsgVoteBatch{Votes: []MsgVote{sampleVote(seq + 1)}}},
				}}
				send.Send("acceptor", "coord", b)
				seq += 2
				sent += 2
			}
		}
	}

	count := func() int { mu.Lock(); defer mu.Unlock(); return len(seqs) }
	waitAtLeast := func(n int) {
		deadline := time.Now().Add(10 * time.Second)
		for count() < n {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d, want >= %d", count(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	sendSome(100)
	waitAtLeast(100)
	send.DropPeerConns() // connection teardown mid-stream
	sendSome(100)
	waitAtLeast(200)
	send.DropPeerConns()
	sendSome(total - seq)
	waitAtLeast(total)

	mu.Lock()
	defer mu.Unlock()
	last := -1
	for i, s := range seqs {
		if s <= last {
			t.Fatalf("vote stream reordered at %d: seq %d after %d", i, s, last)
		}
		last = s
	}
	if len(seqs) != total {
		t.Fatalf("delivered %d of %d votes", len(seqs), total)
	}
	if escrowSeen != total {
		t.Fatalf("escrow piggyback lost on %d of %d votes", total-escrowSeen, total)
	}
}

// TestAcceptorVoteBatchingAndEscrow drives a gateway-style coalesced
// envelope (several one-option propose batches from one coordinator,
// different keys) into one acceptor and asserts (a) the piggybacked escrow
// snapshots carry the acceptor's real base and pending sums, and (b)
// all votes of the dispatch leave in a single transport.Batch
// envelope back to the coordinator, counted by the vote-batching
// metrics.
func TestAcceptorVoteBatchingAndEscrow(t *testing.T) {
	n, net := unitNode(t, ModeMDCC, []record.Constraint{record.MinBound("units", 0)})
	// unitNode's cluster replicates each key on this node's shard only
	// at NodesPerDC=1; preload two keys it owns.
	_ = n.store.Put("a", record.Value{Attrs: map[string]int64{"units": 50}}, 1)
	_ = n.store.Put("b", record.Value{Attrs: map[string]int64{"units": 9}}, 1)

	var got []transport.Envelope
	net.Register("coord", func(env transport.Envelope) { got = append(got, env) })

	opt := func(tx, key string, d int64) Option {
		return Option{
			Tx: TxID(tx), Coord: "coord",
			Update:   record.Commutative(record.Key(key), map[string]int64{"units": d}),
			WriteSet: []record.Key{record.Key(key)}, KeySeq: 1, WriteSeqs: []uint64{1},
		}
	}
	env := transport.Batch{Items: []transport.Envelope{
		{From: "coord", To: n.ID(), Msg: MsgProposeBatch{Opts: []Option{opt("t1", "a", -2)}}},
		{From: "coord", To: n.ID(), Msg: MsgProposeBatch{Opts: []Option{opt("t2", "a", -3)}}},
		{From: "coord", To: n.ID(), Msg: MsgProposeBatch{Opts: []Option{opt("t3", "b", -1)}}},
	}}
	net.At(0, func() { net.Send("gw", n.ID(), env) })
	net.RunFor(time.Second)

	if len(got) != 1 {
		t.Fatalf("acceptor sent %d envelopes, want 1 batched", len(got))
	}
	b, ok := got[0].Msg.(transport.Batch)
	if !ok {
		t.Fatalf("votes not batched: %T", got[0].Msg)
	}
	if len(b.Items) != 3 {
		t.Fatalf("vote batch carried %d items, want 3", len(b.Items))
	}
	// Third vote: key b, base 9, and its own delta pending (snapshots
	// are taken after the vote is cast).
	v3 := b.Items[2].Msg.(MsgVoteBatch).Votes[0]
	if v3.Decision != DecAccept || !v3.Escrow.Valid {
		t.Fatalf("vote 3: %+v", v3)
	}
	var units *AttrEscrow
	for i := range v3.Escrow.Attrs {
		if v3.Escrow.Attrs[i].Attr == "units" {
			units = &v3.Escrow.Attrs[i]
		}
	}
	if units == nil || units.Base != 9 || units.PendDown != -1 || units.PendUp != 0 {
		t.Fatalf("vote 3 escrow: %+v", v3.Escrow)
	}
	// Second vote on key a saw the first one pending.
	v2 := b.Items[1].Msg.(MsgVoteBatch).Votes[0]
	for _, a := range v2.Escrow.Attrs {
		if a.Attr == "units" && (a.Base != 50 || a.PendDown != -5) {
			t.Fatalf("vote 2 escrow: %+v", v2.Escrow)
		}
	}
	m := n.Metrics()
	if m.VoteBatchEnvelopes != 1 || m.VoteBatchItems != 3 {
		t.Fatalf("vote batching counters: %+v", m)
	}
}
