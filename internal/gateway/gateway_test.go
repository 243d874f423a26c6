package gateway

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mdcc/internal/core"
	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

// testWorld is a five-DC deployment on the deterministic simulator
// with one gateway in us-west.
type testWorld struct {
	net    *simnet.Net
	cl     *topology.Cluster
	cfg    core.Config
	nodes  []*core.StorageNode
	stores []*kv.Store
	gw     *Gateway
	// onDeliver, when set, observes every delivered envelope.
	onDeliver func(transport.Envelope)
}

func newTestWorld(t *testing.T, tun Tuning, cons []record.Constraint) *testWorld {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	extra := map[transport.NodeID]topology.DC{}
	for _, id := range NodeIDs(topology.USWest, tun) {
		extra[id] = topology.USWest
	}
	cfg := core.Defaults(core.ModeMDCC)
	cfg.Constraints = cons
	w := &testWorld{cl: cl, cfg: cfg}
	w.net = simnet.New(simnet.Options{
		Latency:     cl.LatencyWith(extra),
		JitterFrac:  0.05,
		ServiceTime: 100 * time.Microsecond,
		Seed:        1,
		OnDeliver: func(e transport.Envelope) {
			if w.onDeliver != nil {
				w.onDeliver(e)
			}
		},
	})
	for _, n := range cl.Storage {
		store := kv.NewMemory()
		w.stores = append(w.stores, store)
		w.nodes = append(w.nodes, core.NewStorageNode(n.ID, n.DC, w.net, cl, cfg, store))
	}
	w.gw = New(topology.USWest, w.net, cl, cfg, tun)
	return w
}

// preload writes a record into every replica of its shard at version 1.
func (w *testWorld) preload(key record.Key, val record.Value) {
	shard := w.cl.Shard(key)
	for i, n := range w.cl.Storage {
		if n.Index == shard {
			_ = w.stores[i].Put(key, val, 1)
		}
	}
}

// state reads the freshest committed replica state of key.
func (w *testWorld) state(key record.Key) (record.Value, record.Version) {
	shard := w.cl.Shard(key)
	var bestVal record.Value
	var bestVer record.Version
	for i, n := range w.cl.Storage {
		if n.Index != shard {
			continue
		}
		if val, ver, ok := w.stores[i].Get(key); ok && ver > bestVer {
			bestVal, bestVer = val, ver
		}
	}
	return bestVal, bestVer
}

// TestCoalescingMergesHotKeyStampede drives a concurrent decrement
// stampede against one hot key and verifies (a) every transaction
// settles committed, (b) the deltas and the per-client-update version
// accounting are conserved through merged options, and (c) the
// stampede actually coalesced into far fewer Paxos options.
func TestCoalescingMergesHotKeyStampede(t *testing.T) {
	const n = 200
	key := record.Key("stock/hot")
	w := newTestWorld(t, Tuning{}, []record.Constraint{record.MinBound("units", 0)})
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 1_000_000}})

	// Warm the headroom account: admission is conservative (no
	// merging) until the first piggybacked escrow snapshot arrives,
	// and a read reply carries one.
	w.net.At(0, func() { w.gw.Read(key, func(record.Value, record.Version, bool) {}) })
	w.net.RunFor(2 * time.Second)

	commits, aborts, settled := 0, 0, 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -1})},
				func(ok bool, err error) {
					settled++
					if err != nil {
						t.Errorf("unexpected gateway error: %v", err)
					}
					if ok {
						commits++
					} else {
						aborts++
					}
				})
		}
	})
	w.net.RunFor(10 * time.Second)

	if settled != n {
		t.Fatalf("settled %d of %d transactions", settled, n)
	}
	if commits != n {
		t.Fatalf("commits %d aborts %d, want all %d committed (headroom is huge)", commits, aborts, n)
	}
	val, ver := w.state(key)
	if got := val.Attr("units"); got != 1_000_000-n {
		t.Errorf("units = %d, want %d (delta conservation through merging)", got, 1_000_000-n)
	}
	if want := record.Version(1 + n); ver != want {
		t.Errorf("version = %d, want %d (merged options must advance by their span)", ver, want)
	}
	m := w.gw.Metrics()
	if m.MergedOptions == 0 || m.MergedUpdates < n/2 {
		t.Errorf("expected heavy coalescing, got %+v", m)
	}
	if m.Commits != n {
		t.Errorf("gateway commit counter = %d, want %d", m.Commits, n)
	}
	// Cross-transaction batching must have produced real envelopes and
	// the acceptors must have unpacked them.
	if m.BatchEnvelopes == 0 || m.BatchFanIn < 1.5 {
		t.Errorf("expected outbound batch envelopes, got %+v", m)
	}
	var env, items int64
	for _, node := range w.nodes {
		nm := node.Metrics()
		env += nm.BatchEnvelopes
		items += nm.BatchItems
	}
	if env == 0 || items < env*2 {
		t.Errorf("acceptors saw %d batch envelopes carrying %d messages, want fan-in >= 2", env, items)
	}
}

// TestGatewayAnswersShareOneEnvelope pins the vote direction of the
// batch window: the proposals of several transactions that reach an
// acceptor in one gateway envelope are answered with one envelope, to
// the gateway's coordinator. An acceptor groups its answers by
// destination id, so this holds only while one id carries all of a
// gateway's transactions.
func TestGatewayAnswersShareOneEnvelope(t *testing.T) {
	const n = 8
	w := newTestWorld(t, Tuning{}, nil)
	keys := make([]record.Key, n)
	for i := range keys {
		keys[i] = record.Key(fmt.Sprintf("one/%d", i))
		w.preload(keys[i], record.Value{Attrs: map[string]int64{"v": 0}})
	}
	// inbound and answers hold, per acceptor, how many proposals each
	// gateway envelope delivered to it carried and how many votes each
	// envelope it sent back carried.
	inbound := map[transport.NodeID][]int{}
	answers := map[transport.NodeID][]int{}
	w.onDeliver = func(e transport.Envelope) {
		if c := carried(e.Msg, false); c > 0 && strings.HasPrefix(string(e.From), "gw/") {
			inbound[e.To] = append(inbound[e.To], c)
		}
		if c := carried(e.Msg, true); c > 0 && strings.HasPrefix(string(e.To), "gw/") {
			if e.To != coordID(topology.USWest) {
				t.Errorf("%s answered %s, not the gateway's coordinator", e.From, e.To)
			}
			answers[e.From] = append(answers[e.From], c)
		}
	}
	committed := 0
	w.net.At(0, func() {
		for _, key := range keys {
			w.gw.Commit([]record.Update{record.Physical(key, 1, record.Value{Attrs: map[string]int64{"v": 1}})},
				func(ok bool, err error) {
					if ok && err == nil {
						committed++
					}
				})
		}
	})
	w.net.RunFor(3 * time.Second)

	if committed != n {
		t.Fatalf("%d of %d uncontended commits acknowledged", committed, n)
	}
	if len(inbound) != len(w.nodes) {
		t.Fatalf("proposals reached %d of %d acceptors", len(inbound), len(w.nodes))
	}
	for acc, in := range inbound {
		if len(in) != 1 || in[0] != n {
			t.Fatalf("%s received the proposals as %v, want all %d in one envelope", acc, in, n)
		}
		if out := answers[acc]; len(out) != 1 || out[0] != n {
			t.Errorf("%s answered one gateway envelope of %d proposals with envelopes carrying %v votes, want one carrying %d",
				acc, n, out, n)
		}
	}
}

// carried counts the proposals (votes false) or the votes (votes true)
// a message carries, looking inside a transport.Batch.
func carried(msg transport.Message, votes bool) int {
	switch m := msg.(type) {
	case transport.Batch:
		c := 0
		for _, it := range m.Items {
			c += carried(it.Msg, votes)
		}
		return c
	case core.MsgProposeFast:
		if !votes {
			return 1
		}
	case core.MsgProposeBatch:
		if !votes {
			return len(m.Opts)
		}
	case core.MsgVote:
		if votes {
			return 1
		}
	case core.MsgVoteBatch:
		if votes {
			return len(m.Votes)
		}
	}
	return 0
}

// TestMergeSplitOnScarceStock exhausts a scarce key: the merged
// option overdraws and must be split so individually-viable
// transactions still commit, the constraint holds, and nothing is
// double-applied.
func TestMergeSplitOnScarceStock(t *testing.T) {
	const n = 10
	key := record.Key("stock/scarce")
	w := newTestWorld(t, Tuning{}, []record.Constraint{record.MinBound("units", 0)})
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 3}})

	commits, settled := 0, 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -1})},
				func(ok bool, err error) {
					settled++
					if err != nil {
						t.Errorf("unexpected gateway error: %v", err)
					}
					if ok {
						commits++
					}
				})
		}
	})
	w.net.RunFor(30 * time.Second)

	if settled != n {
		t.Fatalf("settled %d of %d", settled, n)
	}
	if commits == 0 {
		t.Fatalf("no transaction committed; splitting should let some through")
	}
	val, _ := w.state(key)
	units := val.Attr("units")
	if units < 0 {
		t.Fatalf("constraint violated: units = %d", units)
	}
	if units != 3-int64(commits) {
		t.Errorf("units = %d with %d commits, want %d (conservation)", units, commits, 3-commits)
	}
}

// TestNoMergeBeforeFirstEscrowSnapshot pins the conservative
// bootstrap: with no escrow snapshot yet (the old code treated the
// missing state as unlimited headroom — even when the refresh read
// had failed), nothing may be merged; every update ships individually
// and the acceptors arbitrate. Once the first piggybacked snapshot
// lands (here: via the votes of that first wave), merging starts.
func TestNoMergeBeforeFirstEscrowSnapshot(t *testing.T) {
	const n = 50
	key := record.Key("stock/cold")
	w := newTestWorld(t, Tuning{}, []record.Constraint{record.MinBound("units", 0)})
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 100000}})

	settled := 0
	burst := func() {
		for i := 0; i < n; i++ {
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": -1})},
				func(ok bool, err error) {
					settled++
					if err != nil || !ok {
						t.Errorf("unexpected outcome: ok=%v err=%v", ok, err)
					}
				})
		}
	}
	// Cold burst: submitted before any snapshot can possibly exist.
	w.net.At(0, burst)
	w.net.RunFor(5 * time.Second)
	m := w.gw.Metrics()
	if m.MergedOptions != 0 {
		t.Fatalf("cold burst merged %d options; admission must be conservative before the first snapshot", m.MergedOptions)
	}
	if m.CoalesceBypass != n {
		t.Errorf("cold burst bypassed %d of %d", m.CoalesceBypass, n)
	}
	if m.EscrowUpdates == 0 {
		t.Fatalf("no escrow snapshots piggybacked on the cold burst's votes: %+v", m)
	}
	// Warm burst: the first wave's votes delivered snapshots.
	w.net.At(0, burst)
	w.net.RunFor(5 * time.Second)
	if settled != 2*n {
		t.Fatalf("settled %d of %d", settled, 2*n)
	}
	m = w.gw.Metrics()
	if m.MergedOptions == 0 || m.MergedUpdates < n/2 {
		t.Errorf("warm burst did not coalesce: %+v", m)
	}
	if m.TrackedKeys == 0 || m.MinHeadroom < 0 {
		t.Errorf("headroom gauges not live: tracked=%d min=%d", m.TrackedKeys, m.MinHeadroom)
	}
}

// TestMixedSignWindowResolvesExactly pins per-waiter resolution: a
// window mixing increments and decrements on one attribute (restock +
// purchases) must retire the outstanding account to exactly zero —
// resolving the window's *net* sum against the sign-split account
// left phantom residue in both directions, monotonically shrinking
// headroom until coalescing self-disabled on the key.
func TestMixedSignWindowResolvesExactly(t *testing.T) {
	key := record.Key("stock/mixed")
	w := newTestWorld(t, Tuning{}, []record.Constraint{record.MinBound("units", 0)})
	w.preload(key, record.Value{Attrs: map[string]int64{"units": 10000}})

	// Warm the headroom account so the mixed burst actually merges.
	w.net.At(0, func() { w.gw.Read(key, func(record.Value, record.Version, bool) {}) })
	w.net.RunFor(2 * time.Second)

	settled := 0
	w.net.At(0, func() {
		for i := 0; i < 10; i++ {
			d := int64(-5)
			if i%2 == 1 {
				d = 3
			}
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"units": d})},
				func(ok bool, err error) {
					settled++
					if err != nil || !ok {
						t.Errorf("unexpected outcome: ok=%v err=%v", ok, err)
					}
				})
		}
	})
	w.net.RunFor(5 * time.Second)
	if settled != 10 {
		t.Fatalf("settled %d of 10", settled)
	}
	if m := w.gw.Metrics(); m.MergedOptions == 0 {
		t.Fatalf("mixed burst did not merge: %+v", m)
	}
	w.gw.mu.Lock()
	ks := w.gw.keys[key]
	down, up := ks.outDown["units"], ks.outUp["units"]
	w.gw.mu.Unlock()
	if down != 0 || up != 0 {
		t.Fatalf("outstanding residue after all ops settled: outDown=%d outUp=%d", down, up)
	}
}

// TestUnconstrainedDeltasCoalesceCold pins that the conservative
// bootstrap applies only to constrained attributes: deltas with no
// declared constraint have no escrow to account, so they merge from
// the very first (cold) burst — no snapshot ever exists for them.
func TestUnconstrainedDeltasCoalesceCold(t *testing.T) {
	const n = 60
	key := record.Key("counter/views")
	w := newTestWorld(t, Tuning{}, nil)
	w.preload(key, record.Value{Attrs: map[string]int64{"views": 0}})

	settled := 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			w.gw.Commit([]record.Update{record.Commutative(key, map[string]int64{"views": 1})},
				func(ok bool, err error) {
					settled++
					if err != nil || !ok {
						t.Errorf("unexpected outcome: ok=%v err=%v", ok, err)
					}
				})
		}
	})
	w.net.RunFor(10 * time.Second)
	if settled != n {
		t.Fatalf("settled %d of %d", settled, n)
	}
	if m := w.gw.Metrics(); m.MergedOptions == 0 {
		t.Errorf("cold unconstrained burst did not coalesce: %+v", m)
	}
	if val, ver := w.state(key); val.Attr("views") != n || ver != record.Version(1+n) {
		t.Errorf("views=%d ver=%d, want %d/%d", val.Attr("views"), ver, n, 1+n)
	}
}

// TestAdmissionBackpressure verifies the bounded in-flight window and
// backlog: overflow is shed fast with ErrOverloaded and everything
// admitted still settles.
func TestAdmissionBackpressure(t *testing.T) {
	const n = 20
	tun := Tuning{MaxInflight: 4, MaxQueue: 4, CoalesceWindow: -1} // passthrough only
	w := newTestWorld(t, tun, nil)

	commits, shed, settled := 0, 0, 0
	w.net.At(0, func() {
		for i := 0; i < n; i++ {
			key := record.Key("item/" + string(rune('a'+i)))
			w.gw.Commit([]record.Update{record.Insert(key, record.Value{Attrs: map[string]int64{"v": 1}})},
				func(ok bool, err error) {
					settled++
					switch {
					case err == ErrOverloaded:
						shed++
					case err != nil:
						t.Errorf("unexpected error: %v", err)
					case ok:
						commits++
					}
				})
		}
	})
	w.net.RunFor(20 * time.Second)

	if settled != n {
		t.Fatalf("settled %d of %d", settled, n)
	}
	if shed != n-8 {
		t.Errorf("shed %d, want %d (4 in flight + 4 queued admitted)", shed, n-8)
	}
	if commits != 8 {
		t.Errorf("commits = %d, want 8", commits)
	}
	m := w.gw.Metrics()
	if m.AdmissionRejects != int64(n-8) || m.QueuePeak != 4 {
		t.Errorf("admission metrics %+v", m)
	}
}

// TestBatcherPreservesOrder sends interleaved messages from several
// sources to one destination through the batcher and checks the
// destination observes every message in per-source send order.
func TestBatcherPreservesOrder(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	type tag struct {
		From int
		Seq  int
	}
	var got []tag
	net.Register("sink", func(env transport.Envelope) {
		switch m := env.Msg.(type) {
		case transport.Batch:
			for _, item := range m.Items {
				got = append(got, item.Msg.(tag))
			}
		case tag:
			got = append(got, m)
		}
	})
	net.Register("anchor", func(transport.Envelope) {})
	b := newBatcher(net, "anchor", 2*time.Millisecond)
	// More than two envelopes' worth in one instant: size-triggered
	// flushes interleave with the timer flush of the remainder.
	const senders, per = 3, 50
	net.At(0, func() {
		for s := 0; s < per; s++ {
			for f := 0; f < senders; f++ {
				b.Send(transport.NodeID(rune('a'+f)), "sink", tag{From: f, Seq: s})
			}
		}
	})
	net.RunFor(time.Second)

	if len(got) != senders*per {
		t.Fatalf("received %d messages, want %d", len(got), senders*per)
	}
	last := map[int]int{0: -1, 1: -1, 2: -1}
	for _, m := range got {
		if m.Seq <= last[m.From] {
			t.Fatalf("reordered: from %d seq %d after %d", m.From, m.Seq, last[m.From])
		}
		last[m.From] = m.Seq
	}
}

// TestBatcherFlattensBatch hands the batcher a transport.Batch between
// two plain messages, as the gateway's coordinator does when owed
// visibility rides a propose: the window must leave as one flat
// envelope, every item in send order under its own sender.
func TestBatcherFlattensBatch(t *testing.T) {
	net := simnet.New(simnet.Options{Seed: 1})
	var got []transport.Envelope
	net.Register("sink", func(env transport.Envelope) { got = append(got, env) })
	net.Register("anchor", func(transport.Envelope) {})
	b := newBatcher(net, "anchor", 2*time.Millisecond)
	net.At(0, func() {
		b.Send("a", "sink", 1)
		b.Send("c", "sink", transport.Batch{Items: []transport.Envelope{
			{From: "c", To: "sink", Msg: 2},
			{From: "c", To: "sink", Msg: 3},
		}})
		b.Send("b", "sink", 4)
	})
	net.RunFor(time.Second)

	if len(got) != 1 {
		t.Fatalf("sink got %d envelopes, want 1", len(got))
	}
	bt, ok := got[0].Msg.(transport.Batch)
	if !ok {
		t.Fatalf("sink got %T, want one transport.Batch", got[0].Msg)
	}
	want := []transport.Envelope{
		{From: "a", To: "sink", Msg: 1},
		{From: "c", To: "sink", Msg: 2},
		{From: "c", To: "sink", Msg: 3},
		{From: "b", To: "sink", Msg: 4},
	}
	if len(bt.Items) != len(want) {
		t.Fatalf("batch carries %d items, want %d: %+v", len(bt.Items), len(want), bt.Items)
	}
	for i, e := range bt.Items {
		if e != want[i] {
			t.Errorf("item %d = %+v, want %+v", i, e, want[i])
		}
	}
}
