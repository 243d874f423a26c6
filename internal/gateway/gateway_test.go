package gateway

import (
	"fmt"
	"strings"
	"sync"
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
	return newTestWorldOn(t, tun, cons, simnet.Options{JitterFrac: 0.05, ServiceTime: 100 * time.Microsecond, Seed: 1})
}

// newTestWorldOn is newTestWorld on a simulator with opts' jitter,
// service time and seed.
func newTestWorldOn(t *testing.T, tun Tuning, cons []record.Constraint, opts simnet.Options) *testWorld {
	t.Helper()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	extra := map[transport.NodeID]topology.DC{}
	for _, id := range NodeIDs(topology.USWest, tun) {
		extra[id] = topology.USWest
	}
	cfg := core.Defaults(core.ModeMDCC)
	cfg.Constraints = cons
	w := &testWorld{cl: cl, cfg: cfg}
	opts.Latency = cl.LatencyWith(extra)
	opts.OnDeliver = func(e transport.Envelope) {
		if w.onDeliver != nil {
			w.onDeliver(e)
		}
	}
	w.net = simnet.New(opts)
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
	case core.MsgProposeBatch:
		if !votes {
			return len(m.Opts)
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
	var down, up int64
	if es := w.gw.keys[key].esc; es != nil {
		down, up = es.outDown["units"], es.outUp["units"]
	}
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

// TestBatcherPreservesOrder commits more than one envelope's worth of
// transactions through the gateway in one instant and checks every
// acceptor receives their proposals in commit order, in ⌈n/64⌉
// envelopes from the gateway's coordinator: the coordinator's send queue
// keeps per-destination order across its size-triggered departures and
// the one its window closes. The simulator runs without jitter or
// service time, so one instant's commits share one window and the
// envelopes arrive as they left.
func TestBatcherPreservesOrder(t *testing.T) {
	const n, perEnvelope = 150, 64
	w := newTestWorldOn(t, Tuning{}, nil, simnet.Options{Seed: 1})
	keys := make([]record.Key, n)
	for i := range keys {
		keys[i] = record.Key(fmt.Sprintf("order/%03d", i))
	}
	got := map[transport.NodeID][]record.Key{}
	envelopes := map[transport.NodeID]int{}
	w.onDeliver = func(e transport.Envelope) {
		if e.From != coordID(topology.USWest) {
			return
		}
		if ks := proposedKeys(t, e.Msg); len(ks) > 0 {
			got[e.To] = append(got[e.To], ks...)
			envelopes[e.To]++
		}
	}
	committed := 0
	w.net.At(0, func() {
		for _, key := range keys {
			w.gw.Commit([]record.Update{record.Insert(key, record.Value{Attrs: map[string]int64{"v": 1}})},
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
	if len(got) != len(w.nodes) {
		t.Fatalf("proposals reached %d of %d acceptors", len(got), len(w.nodes))
	}
	for acc, ks := range got {
		if len(ks) != n {
			t.Fatalf("%s received %d proposals, want %d", acc, len(ks), n)
		}
		for i, k := range ks {
			if k != keys[i] {
				t.Fatalf("%s received %s as proposal %d, want %s", acc, k, i, keys[i])
			}
		}
		if want := (n + perEnvelope - 1) / perEnvelope; envelopes[acc] != want {
			t.Errorf("%s received the proposals in %d envelopes, want %d", acc, envelopes[acc], want)
		}
	}
}

// TestBatcherFlattensBatch commits a transaction whose acknowledgement
// commits two more, as a client keeping the gateway busy does: at every
// acceptor the first commit's visibility and the next two proposals
// arrive as one flat transport.Batch, in that order, every item under
// the gateway's coordinator.
func TestBatcherFlattensBatch(t *testing.T) {
	w := newTestWorldOn(t, Tuning{}, nil, simnet.Options{Seed: 1})
	insert := func(key record.Key) []record.Update {
		return []record.Update{record.Insert(key, record.Value{Attrs: map[string]int64{"v": 1}})}
	}
	// proposing holds the coordinator's envelopes that carry proposals:
	// the first commit's, then the pair's.
	var proposing []transport.Envelope
	w.onDeliver = func(e transport.Envelope) {
		if e.From == coordID(topology.USWest) && len(proposedKeys(t, e.Msg)) > 0 {
			proposing = append(proposing, e)
		}
	}
	settled := 0
	count := func(ok bool, err error) {
		if !ok || err != nil {
			t.Errorf("commit failed: %v", err)
		}
		settled++
	}
	w.net.At(0, func() {
		w.gw.Commit(insert("flat/a"), func(ok bool, err error) {
			count(ok, err)
			w.gw.Commit(insert("flat/b"), count)
			w.gw.Commit(insert("flat/c"), count)
		})
	})
	w.net.RunFor(3 * time.Second)

	if settled != 3 {
		t.Fatalf("%d of 3 commits settled", settled)
	}
	if len(proposing) != 2*len(w.nodes) {
		t.Fatalf("the gateway's coordinator sent proposals in %d envelopes, want two per acceptor (%d)", len(proposing), 2*len(w.nodes))
	}
	for _, e := range proposing[len(w.nodes):] {
		b, ok := e.Msg.(transport.Batch)
		if !ok || len(b.Items) != 3 {
			t.Fatalf("to %s: %T %+v, want a Batch of 3 items", e.To, e.Msg, e.Msg)
		}
		items := b.Items
		for _, it := range items {
			if it.From != e.From || it.To != e.To {
				t.Errorf("to %s: item %T from %s to %s, want from %s", e.To, it.Msg, it.From, it.To, e.From)
			}
		}
		if v, ok := items[0].Msg.(core.MsgVisibility); !ok || !v.Commit || v.Opt.Update.Key != "flat/a" {
			t.Errorf("to %s: first item %T, want the first commit's visibility", e.To, items[0].Msg)
		}
		for i, want := range []record.Key{"flat/b", "flat/c"} {
			if ks := proposedKeys(t, items[1+i].Msg); len(ks) != 1 || ks[0] != want {
				t.Errorf("to %s: item %d proposes %v, want %s", e.To, 1+i, ks, want)
			}
		}
	}
}

// proposedKeys lists the keys of the proposals msg carries, in order,
// looking inside a transport.Batch; a Batch inside a Batch fails t.
func proposedKeys(t *testing.T, msg transport.Message) []record.Key {
	t.Helper()
	var keys []record.Key
	add := func(m transport.Message) {
		switch m := m.(type) {
		case core.MsgProposeBatch:
			for _, o := range m.Opts {
				keys = append(keys, o.Update.Key)
			}
		case transport.Batch:
			t.Errorf("a Batch nested in a Batch: %+v", m)
		}
	}
	if b, ok := msg.(transport.Batch); ok {
		for _, it := range b.Items {
			add(it.Msg)
		}
		return keys
	}
	add(msg)
	return keys
}

// TestMetricsReadWhileCommitting reads Metrics from another goroutine
// while the gateway commits over the real-time Local transport. The
// batch counters live on the coordinator, which updates them on its own
// goroutine, so they must be safe to read live; run it under -race.
func TestMetricsReadWhileCommitting(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 0, ClientDC: -1})
	net := transport.NewLocal(nil)
	defer net.Close()
	cfg := core.Defaults(core.ModeMDCC)
	for _, n := range cl.Storage {
		core.NewStorageNode(n.ID, n.DC, net, cl, cfg, kv.NewMemory())
	}
	gw := New(topology.USWest, net, cl, cfg, Tuning{})
	defer gw.Close()

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				gw.Metrics()
			}
		}
	}()
	defer func() {
		close(stop)
		reader.Wait()
	}()
	const n = 32
	done := make(chan bool, n)
	for i := 0; i < n; i++ {
		gw.Commit([]record.Update{record.Insert(record.Key(fmt.Sprintf("live/%d", i)),
			record.Value{Attrs: map[string]int64{"v": 1}})},
			func(ok bool, err error) { done <- ok && err == nil })
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case ok := <-done:
			if !ok {
				t.Error("a commit failed")
			}
		case <-timeout:
			t.Fatalf("%d of %d commits settled within 10s", i, n)
		}
	}
	if m := gw.Metrics(); m.BatchEnvelopes+m.BatchSingles == 0 {
		t.Errorf("no message left the coordinator's queue: %+v", m)
	}
}
