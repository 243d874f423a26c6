package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mdcc/internal/paxos"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// newCheckpointWorld is newDurableWorld with periodic checkpointing
// enabled, so crash recovery exercises the snapshot-plus-tail path
// instead of full-log replay.
func newCheckpointWorld(t *testing.T, seed int64, interval time.Duration) *durableWorld {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 3, ClientDC: -1})
	net := simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(nil),
		JitterFrac:  0.05,
		ServiceTime: 100 * time.Microsecond,
		Seed:        seed,
	})
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 2 * time.Second
	cfg.SyncInterval = 500 * time.Millisecond
	cfg.CheckpointInterval = interval
	w := &durableWorld{t: t, net: net, cl: cl, cfg: cfg, dir: t.TempDir()}
	for _, n := range cl.Storage {
		ds, err := OpenDurableOpts(filepath.Join(w.dir, string(n.ID)), DurableOptions{NoSync: true})
		if err != nil {
			t.Fatalf("open durable: %v", err)
		}
		w.durables = append(w.durables, ds)
		w.nodes = append(w.nodes, NewDurableStorageNode(n.ID, n.DC, net, cl, cfg, ds))
	}
	for _, c := range cl.Clients {
		w.coords = append(w.coords, NewCoordinator(c.ID, c.DC, net, cl, cfg))
	}
	return w
}

// TestCheckpointBoundsRecovery runs traffic past several checkpoint
// intervals, crashes a replica, and asserts recovery seeds from a
// snapshot with a tail bounded by the work since it — and that the
// recovered incarnation's state is exactly the crashed one's.
func TestCheckpointBoundsRecovery(t *testing.T) {
	w := newCheckpointWorld(t, 11, 1*time.Second)
	key := record.Key("acct/cp")
	for _, ds := range w.durables {
		if err := ds.Store.Put(key, record.Value{Attrs: map[string]int64{"bal": 0}}, 1); err != nil {
			t.Fatalf("preload: %v", err)
		}
	}
	deadline := w.net.Now().Add(8 * time.Second)
	var loop func(ci int)
	loop = func(ci int) {
		if !w.net.Now().Before(deadline) {
			return
		}
		w.coords[ci].Commit([]record.Update{
			record.Commutative(key, map[string]int64{"bal": 1}),
		}, func(CommitResult) { loop(ci) })
	}
	for ci := range w.coords {
		ci := ci
		w.net.At(0, func() { loop(ci) })
	}
	w.net.RunFor(10 * time.Second)

	const victim = 1
	info := w.nodes[victim].Durability()
	if info.Checkpoints == 0 || info.SnapshotSeq == 0 {
		t.Fatalf("no checkpoint taken in 10s at 1s interval: %+v", info)
	}
	totalAppends := info.Store.Appends
	preVal, preVer, _ := w.durables[victim].Store.Get(key)
	preEntries := w.durables[victim].Store.AppendEntries(nil)

	w.crash(victim)
	w.restart(victim)

	rs := w.durables[victim].replay
	if !rs.UsedSnapshot {
		t.Fatalf("recovery did not use a snapshot: %+v", rs)
	}
	if rs.FellBack || !rs.UsedSnapshot {
		t.Errorf("unexpected fallback/full replay: %+v", rs)
	}
	// The bound: the tail is the work since the last checkpoint, which
	// must be well under everything the node ever logged.
	if tail := rs.Tail; tail >= totalAppends {
		t.Errorf("recovery tail %d not bounded by checkpoint (total appends %d)", tail, totalAppends)
	}
	v, ver, ok := w.durables[victim].Store.Get(key)
	if !ok || ver != preVer || v.Attr("bal") != preVal.Attr("bal") {
		t.Errorf("recovered state bal=%d ver=%d, want bal=%d ver=%d",
			v.Attr("bal"), ver, preVal.Attr("bal"), preVer)
	}
	// Every key, tombstones included, recovers to the same value and
	// version: the store's rows are byte-identical.
	if post := w.durables[victim].Store.AppendEntries(nil); !bytes.Equal(post, preEntries) {
		t.Errorf("store diverged after recovery\n got %x\nwant %x", post, preEntries)
	}
	// The restarted node keeps checkpointing and serving.
	w.net.RunFor(5 * time.Second)
	if got := w.nodes[victim].Durability(); got.Checkpoints == 0 {
		t.Errorf("restarted incarnation never checkpointed: %+v", got)
	}
}

// TestCheckpointedReopenBounded is the recovery-time gate: a store that
// took 20k puts (and 1234 more after its last checkpoint) with a
// checkpoint every 5k reopens from the newest snapshot plus a tail
// shorter than one checkpoint interval, inside two seconds. The reopen
// takes milliseconds; full-log replay is the path allowed to grow with
// history, and two seconds trips only on falling back to it.
func TestCheckpointedReopenBounded(t *testing.T) {
	const ops, every, after, keys = 20_000, 5_000, 1_234, 128
	dir := t.TempDir()
	opts := DurableOptions{NoSync: true, SegmentSize: 1 << 20}
	ds, err := OpenDurableOpts(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) record.Key { return record.Key(fmt.Sprintf("acct/%05d", i%keys)) }
	for i := 0; i < ops+after; i++ {
		val := record.Value{Attrs: map[string]int64{"bal": int64(i)}}
		if err := ds.Store.Put(key(i), val, record.Version(i/keys+1)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if i < ops && (i+1)%every == 0 {
			if err := ds.Checkpoint(nil); err != nil {
				t.Fatalf("checkpoint at %d: %v", i+1, err)
			}
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenDurableOpts(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ds.Close()
	rs := ds.replay
	if !rs.UsedSnapshot || rs.FellBack {
		t.Errorf("reopen did not seed from the newest snapshot: %+v", rs)
	}
	if tail := rs.Tail; tail != after {
		t.Errorf("replayed a tail of %d records, want the %d written since the last checkpoint", tail, after)
	}
	if rs.Duration >= 2*time.Second {
		t.Errorf("checkpointed reopen took %s, want < 2s", rs.Duration)
	}
	for i := ops + after - keys; i < ops+after; i++ {
		v, ver, ok := ds.Store.Get(key(i))
		if !ok || v.Attr("bal") != int64(i) || ver != record.Version(i/keys+1) {
			t.Fatalf("%s after reopen: bal=%d ver=%d ok=%v, want bal=%d ver=%d",
				key(i), v.Attr("bal"), ver, ok, i, i/keys+1)
		}
	}
}

// TestCheckpointFallbackToPreviousSnapshot corrupts the newest
// snapshot and asserts recovery falls back to the previous one plus
// the longer log tail its cut retains — exact state, no error — and
// that the corrupt snapshot is removed so later pruning cannot prefer
// it. Corrupting both snapshots must surface typed ErrCorrupt.
func TestCheckpointFallbackToPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	put := func(i, ver int) {
		k := record.Key([]byte{'k', byte('0' + i%10)})
		if err := ds.Store.Put(k, record.Value{Attrs: map[string]int64{"x": int64(ver)}}, record.Version(ver)); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		put(i, 1)
	}
	if err := ds.Checkpoint(nil); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	for i := 0; i < 10; i++ {
		put(i, 2)
	}
	if err := ds.Checkpoint(nil); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	for i := 0; i < 5; i++ {
		put(i, 3)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(seq int) {
		path := filepath.Join(dir, "snap", "snap-0000000"+string(rune('0'+seq))+".snap")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read snapshot: %v", err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("rewrite snapshot: %v", err)
		}
	}
	corrupt(2)

	ds, err = OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatalf("reopen with corrupt newest snapshot: %v", err)
	}
	rs := ds.replay
	if !rs.UsedSnapshot || !rs.FellBack || rs.SnapshotSeq != 1 {
		t.Fatalf("expected fallback to snapshot 1: %+v", rs)
	}
	for i := 0; i < 10; i++ {
		want := int64(2)
		if i < 5 {
			want = 3
		}
		k := record.Key([]byte{'k', byte('0' + i)})
		v, ver, ok := ds.Store.Get(k)
		if !ok || v.Attr("x") != want || ver != record.Version(want) {
			t.Errorf("%s: got x=%d ver=%d ok=%v, want %d", k, v.Attr("x"), ver, ok, want)
		}
	}
	// The corrupt snapshot is gone; the next checkpoint supersedes it.
	if seqs, _ := wal.ListSnapshots(filepath.Join(dir, "snap")); len(seqs) != 1 || seqs[0] != 1 {
		t.Errorf("corrupt snapshot not removed: %v", seqs)
	}
	if err := ds.Checkpoint(nil); err != nil {
		t.Fatalf("checkpoint after fallback: %v", err)
	}
	if ds.snapSeq != 2 {
		t.Errorf("snapshot seq after fallback checkpoint = %d, want 2", ds.snapSeq)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Both snapshots corrupt: the replica's state is unrecoverable
	// locally and the error must say so, typed.
	corrupt(1)
	corrupt(2)
	if _, err := OpenDurableOpts(dir, DurableOptions{NoSync: true}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("both snapshots corrupt: got %v, want wal.ErrCorrupt", err)
	}
}

// TestDegradeOnDurabilityFailure arms a persistent fsync fault under a
// durable node's logs and asserts the first refused write degrades it:
// typed error latched, node halted, counters visible. That nothing is
// acked after the failure — the dispatch it happened in sends nothing,
// what it staged before the failure included — is
// TestDegradedDispatchSendsNothing's to show, below.
func TestDegradeOnDurabilityFailure(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 1})
	faults := wal.NewFaults()
	ds, err := OpenDurableOpts(t.TempDir(), DurableOptions{NoSync: true, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	sn := cl.Storage[0]
	n := NewDurableStorageNode(sn.ID, sn.DC, net, cl, Defaults(ModeMDCC), ds)

	if err := n.store.Put("warm", record.Value{Attrs: map[string]int64{"x": 1}}, 1); err != nil {
		t.Fatalf("healthy put: %v", err)
	}
	faults.FailSync(true)
	n.storePut("k", record.Encode(record.Value{Attrs: map[string]int64{"x": 2}}), 2)
	if n.DurabilityError() == nil {
		t.Fatal("node did not degrade on refused put")
	}
	if !errors.Is(n.DurabilityError(), ErrDurability) {
		t.Errorf("degraded error %v does not wrap ErrDurability", n.DurabilityError())
	}
	if !n.halted {
		t.Error("degraded node not halted")
	}
	if m := n.Metrics(); m.DurabilityFailures != 1 {
		t.Errorf("DurabilityFailures=%d, want 1", m.DurabilityFailures)
	}
	// Later failures don't re-latch; the first error is the story.
	n.storePut("k2", nil, 1)
	if m := n.Metrics(); m.DurabilityFailures != 1 {
		t.Errorf("degrade latched twice: %d", m.DurabilityFailures)
	}
	if !n.Durability().Degraded {
		t.Error("Durability() does not report degraded")
	}
	// Decision records degrade the same way on a fresh node.
	faults2 := wal.NewFaults()
	ds2, err := OpenDurableOpts(t.TempDir(), DurableOptions{NoSync: true, Faults: faults2})
	if err != nil {
		t.Fatal(err)
	}
	cl2 := topology.NewCluster(topology.Layout{NodesPerDC: 2, Clients: 1, ClientDC: -1})
	sn2 := cl2.Storage[1]
	n2 := NewDurableStorageNode(sn2.ID, sn2.DC, net, cl2, Defaults(ModeMDCC), ds2)
	faults2.FailSync(true)
	n2.logDecision("k", DecAccept, Option{Tx: "tx1", Update: record.Update{Key: "k"}})
	if n2.DurabilityError() == nil {
		t.Fatal("refused decision record did not degrade node")
	}
}

// sendRecorder counts what a node hands to the network.
type sendRecorder struct {
	transport.Network
	sent []transport.Message
}

func (r *sendRecorder) Send(from, to transport.NodeID, msg transport.Message) {
	r.sent = append(r.sent, msg)
	r.Network.Send(from, to, msg)
}

// TestDegradedDispatchSendsNothing drives, through handle, three
// envelopes whose handlers persist and then answer, on a durable node
// whose disk refuses every write: the node must degrade and the
// dispatch must hand the network nothing — not the messages staged
// before the failure, and not the ones a handler goes on to produce
// after it (a Phase2b{OK: true} for a base put the disk refused is an
// ack of unsynced state).
func TestDegradedDispatchSendsNothing(t *testing.T) {
	commit := func(tx TxID, key record.Key) MsgVisibility {
		return MsgVisibility{Commit: true, Opt: Option{Tx: tx, KeySeq: 1, Coord: "coord",
			Update: record.Insert(key, record.Value{Attrs: map[string]int64{"x": 1}})}}
	}
	for _, tc := range []struct {
		name string
		// prime builds leader state on the healthy node; env is what
		// arrives once the disk has failed.
		prime func(n *StorageNode)
		env   transport.Envelope
	}{
		{
			name: "Phase2a with a base",
			env: transport.Envelope{From: "ldr", Msg: MsgPhase2a{
				Key: "k", Ballot: paxos.Classic(1, "ldr"), Seq: 1,
				HasBase: true, BaseVersion: 1, BaseValue: record.Encode(record.Value{Attrs: map[string]int64{"x": 1}}),
			}},
		},
		{
			name: "Batch of a proposal and a commit visibility",
			env: transport.Envelope{From: "gw", Msg: transport.Batch{Items: []transport.Envelope{
				{From: "coord", Msg: MsgProposeBatch{Opts: []Option{{Tx: "c#2", KeySeq: 2, Coord: "coord",
					Update: record.Insert("other", record.Value{})}}}},
				{From: "coord", Msg: commit("c#1", "k")},
			}}},
		},
		{
			name: "commit visibility with a recovery waiter to answer",
			prime: func(n *StorageNode) {
				id := OptionID{Tx: "c#1", Key: "k"}
				n.lr("k").waiters[id] = []optWaiter{{reqID: 7, from: "recoverer", keySeq: 1}}
			},
			env: transport.Envelope{From: "coord", Msg: commit("c#1", "k")},
		},
		{
			name: "commit visibility that drains the classic window",
			prime: func(n *StorageNode) {
				l := n.lr("k")
				l.owned, l.ballot, l.classicLeft = true, paxos.Classic(1, string(n.id)), 0
			},
			env: transport.Envelope{From: "coord", Msg: commit("c#1", "k")},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
			net := &sendRecorder{Network: simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 1})}
			faults := wal.NewFaults()
			ds, err := OpenDurableOpts(t.TempDir(), DurableOptions{NoSync: true, Faults: faults})
			if err != nil {
				t.Fatal(err)
			}
			sn := cl.Storage[0]
			n := NewDurableStorageNode(sn.ID, sn.DC, net, cl, Defaults(ModeMDCC), ds)
			if tc.prime != nil {
				tc.prime(n)
			}
			faults.FailSync(true)
			n.handle(tc.env)
			if n.DurabilityError() == nil {
				t.Fatal("the dispatch persisted nothing: the node did not degrade")
			}
			if len(net.sent) != 0 {
				t.Fatalf("degraded dispatch sent %d messages: %+v", len(net.sent), net.sent)
			}
		})
	}
}

// TestSnapshotWalksKeyOrder: a checkpoint lists the node's records in
// key order, whatever order they were settled in, so two replicas that
// hold the same state write the same snapshot. Records settle an
// insert and then an increment, in a shuffled key order on one durable
// node and in the reverse of that order on another: the first node's
// snapshotOplog never steps back in key order and names every record,
// and the two nodes' checkpoints are equal byte for byte.
//
// Every third record is touched only by an insert that aborted, and so
// holds no committed value — a hollow row in the store (kv.Store.Bind)
// — and every third by an insert whose vote is still open; both kinds
// sit between the settled ones in key order. The aborted ones are named
// in the checkpoint like the others, in key order; the open ones are
// what the pending sweep, walking the same rows, recovers, in key
// order too.
func TestSnapshotWalksKeyOrder(t *testing.T) {
	const records = 300
	order := rand.New(rand.NewSource(57)).Perm(records)
	key := func(i int) record.Key { return record.Key(fmt.Sprintf("walk/%04d", i)) }
	const (
		settled = iota
		aborted // an insert that aborted, and nothing else
		open    // an insert whose vote is open, and nothing else
	)
	kind := func(i int) int { return i % 3 }
	checkpoint := func(order []int) (*StorageNode, []byte) {
		dir := t.TempDir()
		ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, ClientDC: -1})
		cfg := Defaults(ModeMDCC)
		cfg.PendingTimeout = 0
		net := &codecNet{}
		n := NewDurableStorageNode(cl.Storage[0].ID, cl.Storage[0].DC, net, cl, cfg, ds)
		const coord = "gw/us-west/c0"
		for round := 0; round < 2; round++ {
			for _, i := range order {
				if round > 0 && kind(i) != settled {
					continue
				}
				up := record.Insert(key(i), record.Value{Attrs: map[string]int64{"n": 0}})
				if round > 0 {
					up = record.Commutative(key(i), map[string]int64{"n": 1})
				}
				seq := uint64(round + 1)
				opt := Option{
					Tx: TxID(fmt.Sprintf("%s#%d", coord, 2*i+round+1)), Coord: coord, Update: up,
					WriteSet: []record.Key{key(i)}, KeySeq: seq, WriteSeqs: []uint64{seq},
				}
				net.deliver(t, coord, n.ID(), MsgProposeBatch{Opts: []Option{opt}})
				if kind(i) != open {
					net.deliver(t, coord, n.ID(), visibilityFor(opt, kind(i) == settled))
				}
			}
		}
		if got := n.Metrics().Executed; got != 2*records/3 {
			t.Fatalf("executed %d options, want %d", got, 2*records/3)
		}
		if got := n.Store().Len(); got != records/3 {
			t.Fatalf("the store holds %d committed keys, want %d", got, records/3)
		}
		n.Checkpoint()
		if n.Durability().Checkpoints != 1 {
			t.Fatalf("no checkpoint taken: %+v", n.Durability())
		}
		snapDir := filepath.Join(dir, "snap")
		seqs, err := wal.ListSnapshots(snapDir)
		if err != nil || len(seqs) != 1 {
			t.Fatalf("snapshots %v, %v", seqs, err)
		}
		payload, err := wal.ReadSnapshot(snapDir, seqs[0])
		if err != nil {
			t.Fatal(err)
		}
		return n, payload
	}

	n, shuffled := checkpoint(order)
	var named []record.Key
	for _, e := range n.snapshotOplog() {
		if len(named) > 0 && e.Key < named[len(named)-1] {
			t.Fatalf("snapshotOplog emits %s after %s", e.Key, named[len(named)-1])
		}
		if len(named) == 0 || e.Key != named[len(named)-1] {
			named = append(named, e.Key)
		}
	}
	if len(named) != 2*records/3 {
		t.Fatalf("snapshotOplog names %d records, want the %d settled and aborted ones", len(named), 2*records/3)
	}
	for _, k := range named {
		if _, ver, ok := n.Store().GetEncoded(k); ok != (ver == 2) {
			t.Fatalf("%s reads v%d committed=%v", k, ver, ok)
		}
	}

	n.sweepPending()
	var reqs []uint64
	for req := range n.recoveries {
		reqs = append(reqs, req)
	}
	slices.Sort(reqs)
	if len(reqs) != records/3 {
		t.Fatalf("the sweep started %d recoveries, want one per open insert (%d)", len(reqs), records/3)
	}
	for j, req := range reqs {
		if got, want := n.recoveries[req].stuck.WriteSet[0], key(3*j+open); got != want {
			t.Fatalf("recovery %d is for %s, want %s: the sweep left key order", j, got, want)
		}
	}

	slices.Reverse(order)
	if _, reversed := checkpoint(order); !bytes.Equal(shuffled, reversed) {
		t.Fatalf("the same settles in opposite orders checkpoint to different bytes (%d and %d B)", len(shuffled), len(reversed))
	}
}
