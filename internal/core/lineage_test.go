package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/simnet"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
)

func TestLineageSummaryRanges(t *testing.T) {
	var s LineageSummary
	for _, seq := range []uint64{2, 4, 3, 1, 1, 7} {
		s.Add("c0", seq, false, true)
	}
	if got := s.String(); got != "Δ{c0:[1-4 7]}" {
		t.Fatalf("canonical form = %q", got)
	}
	if !s.Contains("c0", 3) || s.Contains("c0", 5) || s.Contains("c1", 1) {
		t.Fatal("containment wrong")
	}
	s.Add("c0", 6, true, false)
	s.Add("c0", 5, false, true)
	if got := s.String(); got != "Δ{c0:[1-7]!:[6]}" {
		t.Fatalf("after gap fill = %q", got)
	}
	if d, ok := s.Decision("c0", 6); !ok || d != DecReject {
		t.Fatalf("reject decision = %v %v", d, ok)
	}
	if d, ok := s.Decision("c0", 5); !ok || d != DecAccept {
		t.Fatalf("accept decision = %v %v", d, ok)
	}
	if _, ok := s.Decision("c0", 99); ok {
		t.Fatal("unknown seq answered")
	}
}

func TestLineageSummaryUnionAndEqual(t *testing.T) {
	var a, b LineageSummary
	a.Add("c0", 1, false, true)
	a.Add("c0", 2, false, true)
	a.Add("c1", 5, true, false)
	b.Add("c0", 3, false, true)
	b.Add("c1", 5, true, false)
	if a.String() == b.String() || a.ContainsAll(b) {
		t.Fatal("unequal summaries compared equal")
	}
	u1 := a.Clone()
	u1.Union(b)
	u2 := b.Clone()
	u2.Union(a)
	if u1.String() != u2.String() {
		t.Fatalf("union not commutative: %s vs %s", u1, u2)
	}
	if !u1.ContainsAll(a) || !u1.ContainsAll(b) {
		t.Fatal("union lost entries")
	}
	u3 := u1.Clone()
	u3.Union(b)
	if u3.String() != u1.String() {
		t.Fatal("union not idempotent")
	}
	if u1.String() != "Δ{c0:[1-3];c1:[5]!:[5]}" {
		t.Fatalf("union canonical form = %q", u1.String())
	}
}

func TestLaneOf(t *testing.T) {
	cases := map[TxID]string{
		"app/us-west/0#17":          "app/us-west/0",
		"gw/eu-ie/c3~MG5PZK1W~e2#5": "gw/eu-ie/c3~MG5PZK1W~e2",
		"raw-tx-without-suffix":     "raw-tx-without-suffix",
	}
	for tx, want := range cases {
		if got := laneOf(tx); got != want {
			t.Errorf("laneOf(%q) = %q, want %q", tx, got, want)
		}
	}
}

// Lineage summaries survive the wire format exactly (TCP ships
// Phase1b/Phase2a/SyncReply messages carrying them).
func TestLineageSummaryWireRoundTrip(t *testing.T) {
	var s LineageSummary
	s.Add("gw/us-west/c0", 1, false, true)
	s.Add("gw/us-west/c0", 2, true, false)
	s.Add("gw/us-west/c0", 4, false, true)
	s.Add("app/1~MG5PZK1W", 1, false, false)
	msg := MsgSyncReply{Entries: []SyncEntry{{
		Key: "k", Version: 3, Lineage: s.Clone(),
	}}}
	got := binaryRoundTrip(t, msg).(MsgSyncReply)
	if !reflect.DeepEqual(got.Entries[0].Lineage, s) {
		t.Fatalf("wire mangled summary: %s -> %s", s, got.Entries[0].Lineage)
	}
}

// The kind-disjoint rule: once a key's class locks on its first
// non-creating update, the other kind is rejected with the typed
// ErrMixedUpdateKinds — in both directions — while record-creating
// inserts stay class-neutral.
func TestMixedKindTypedReject(t *testing.T) {
	w := newWorld(t, cfgNoSweep(ModeMDCC), 1, 1, 11)

	// Insert (neutral), then a delta locks the key commutative.
	if !w.commit(0, record.Insert("mk/c", record.Value{Attrs: map[string]int64{"n": 0}})).Committed {
		t.Fatal("insert failed")
	}
	if !w.commit(0, record.Commutative("mk/c", map[string]int64{"n": 1})).Committed {
		t.Fatal("delta after insert failed (inserts must be class-neutral)")
	}
	w.settle()
	_, ver, _ := w.read(0, "mk/c")
	res := w.commit(0, record.Physical("mk/c", ver, record.Value{Attrs: map[string]int64{"n": 99}}))
	if res.Committed || res.Err != ErrMixedUpdateKinds {
		t.Fatalf("physical rewrite of a commutative key: committed=%v err=%v, want typed reject", res.Committed, res.Err)
	}

	// The other direction: a physically rewritten key rejects deltas.
	if !w.commit(0, record.Insert("mk/p", record.Value{Attrs: map[string]int64{"n": 0}})).Committed {
		t.Fatal("insert failed")
	}
	w.settle()
	_, ver, _ = w.read(0, "mk/p")
	if !w.commit(0, record.Physical("mk/p", ver, record.Value{Attrs: map[string]int64{"n": 1}})).Committed {
		t.Fatal("physical rewrite failed")
	}
	w.settle()
	res = w.commit(0, record.Commutative("mk/p", map[string]int64{"n": 1}))
	if res.Committed || res.Err != ErrMixedUpdateKinds {
		t.Fatalf("delta on a physical key: committed=%v err=%v, want typed reject", res.Committed, res.Err)
	}
	// Plain conflicts stay untyped.
	res = w.commit(0, record.Physical("mk/p", ver, record.Value{Attrs: map[string]int64{"n": 2}}))
	if res.Committed || res.Err != nil {
		t.Fatalf("stale-vread conflict: committed=%v err=%v, want plain abort", res.Committed, res.Err)
	}
}

// Released decided-log contents must not cost idempotence: once a log
// past decidedLimit entries has every peer's summary from anti-entropy
// and the sweep's compaction releases its entries, a duplicated late
// visibility for one is still skipped — the lineage summary answers
// forever. With one replica partitioned away for the whole run, no
// replica ever holds that one's summary, and none releases anything:
// the ack is every peer's, not a quorum's.
func TestReleasedEntryStaysIdempotent(t *testing.T) {
	const key = record.Key("rel/1")
	// Past decidedLimit with room to spare: a replica may take one of
	// them by base adoption, which leaves no decided-log entry.
	const deltas = decidedLimit + 8
	run := func(t *testing.T, partitioned bool) (*world, []Option) {
		cfg := Defaults(ModeMDCC) // the sweep forces compaction of logs past decidedLimit
		cfg.SyncInterval = 300 * time.Millisecond
		cfg.DecidedRetention = time.Second
		w := newWorld(t, cfg, 1, 1, 12)
		replicas := w.cl.Replicas(key)
		if partitioned {
			var rest []transport.NodeID
			for _, c := range w.coords {
				rest = append(rest, c.ID())
			}
			w.net.Partition(replicas[:1], append(rest, replicas[1:]...))
		}
		for i := 0; i < deltas; i++ {
			if !w.commit(0, record.Commutative(key, map[string]int64{"x": 1})).Committed {
				t.Fatal("delta failed")
			}
		}
		// Keep copies of settled options for a late replay, before
		// anything is released.
		victim := w.node(replicas[len(replicas)-1])
		var opts []Option
		victim.rs(key).decided.each(&victim.lanes, key, func(e decidedEntry) bool {
			if opt, ok := e.option(); ok && e.Decision == DecAccept {
				opts = append(opts, opt)
			}
			return true
		})
		// Anti-entropy exchanges summaries (the ack channel); the sweep
		// releases what every peer has.
		w.net.RunFor(10 * time.Second)
		return w, opts
	}

	t.Run("all peers ack", func(t *testing.T) {
		w, opts := run(t, false)
		replicas := w.cl.Replicas(key)
		victim := w.node(replicas[len(replicas)-1])
		if len(opts) < decidedLimit {
			t.Fatalf("captured %d settled options, want the whole log", len(opts))
		}
		if victim.Metrics().DecidedReleased == 0 {
			t.Fatal("ack-gated release never fired despite full anti-entropy ack coverage")
		}
		for _, n := range w.nodes {
			checkGauges(t, n)
		}
		val, ver, _ := victim.Store().Get(key)
		if val.Attr("x") != deltas || ver != deltas {
			t.Fatalf("pre-replay state %v v%d", val, ver)
		}
		// Late duplicated visibility for released options: must be
		// skipped via the summary, not re-applied.
		for _, opt := range opts {
			victim.onVisibility(MsgVisibility{Opt: opt, Commit: true})
		}
		val, ver, _ = victim.Store().Get(key)
		if val.Attr("x") != deltas || ver != deltas {
			t.Fatalf("late visibility double-applied after content release: %v v%d", val, ver)
		}
	})

	t.Run("one replica partitioned", func(t *testing.T) {
		w, _ := run(t, true)
		for _, id := range w.cl.Replicas(key) {
			n := w.node(id)
			if got := n.Metrics().DecidedReleased; got != 0 {
				t.Errorf("%s released %d entries without the partitioned replica's summary", id, got)
			}
			if id != w.cl.Replicas(key)[0] && n.rs(key).decided.len() <= decidedLimit {
				t.Errorf("%s holds %d entries, want more than %d", id, n.rs(key).decided.len(), decidedLimit)
			}
		}
	})
}

// A replica that missed a transaction's visibility is healed by the
// dangling-transaction sweep: onRecoverOpt decodes each settled entry
// into the MsgOptDecided it answers with, for a merged commutative
// (span 3) and a read-check option, and the recoverer's visibility is
// built from that. A physical record keeps no entries, so its leader
// answers the rewrite from its summary, accepted and without contents:
// the first recovery, started from the merged option's stuck vote, has
// no copy of the rewrite and leaves its key, and the next sweep's
// recovery, started from the rewrite's own stuck vote, heals it from
// that. Each visibility carries Tx, Update and KeySeq, no coordinator
// and no write-set.
func TestRecoveryHealsFromSettledEntries(t *testing.T) {
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 2 * time.Second
	cfg.SyncInterval = 0 // anti-entropy would heal the victim before recovery is asked to
	cfg.MasterDC = func(record.Key) topology.DC { return topology.USEast }
	w := newWorld(t, cfg, 1, 1, 21)
	if !w.commit(0,
		record.Insert("heal/p", record.Value{Attrs: map[string]int64{"n": 1}}),
		record.Insert("heal/c", record.Value{Attrs: map[string]int64{"x": 10}}),
		record.Insert("heal/r", record.Value{Attrs: map[string]int64{"n": 1}}),
	).Committed {
		t.Fatal("setup failed")
	}
	w.settle()
	updates := []record.Update{
		record.MergedCommutative("heal/c", map[string]int64{"x": -3}, 3),
		record.Physical("heal/p", 1, record.Value{Attrs: map[string]int64{"n": 2}, Blob: []byte("row")}),
		record.ReadCheck("heal/r", 1),
	}

	var victim, healthy *StorageNode
	for _, n := range w.nodes {
		switch n.ID() {
		case topology.StorageID(topology.APTokyo, 0):
			victim = n
		case topology.StorageID(topology.USEast, 0):
			healthy = n
		}
	}
	// Tap what reaches the victim.
	var decided []MsgOptDecided
	var visible []MsgVisibility
	w.net.Register(victim.ID(), func(env transport.Envelope) {
		switch m := env.Msg.(type) {
		case MsgOptDecided:
			decided = append(decided, m)
		case MsgVisibility:
			visible = append(visible, m)
		case MsgVisibilityBatch:
			visible = append(visible, m.Items...)
		}
		victim.handle(env)
	})

	// The proposals reach every replica (us-west to ap-tk is 60 ms one
	// way); then the coordinator loses the victim, and with it the
	// victim's copy of the visibility.
	var res []CommitResult
	w.commitAsync(0, &res, updates...)
	w.net.RunFor(100 * time.Millisecond)
	w.net.Partition([]transport.NodeID{w.coords[0].ID()}, []transport.NodeID{victim.ID()})
	w.net.RunFor(time.Second)
	if len(res) != 1 || !res[0].Committed {
		t.Fatalf("transaction outcome %+v, want committed", res)
	}
	if _, ver, _ := victim.Store().GetEncoded("heal/p"); ver != 1 || len(visible) != 0 {
		t.Fatalf("victim at v%d after %d visibility messages: it was to miss them", ver, len(visible))
	}

	w.net.RunFor(10 * time.Second) // the sweep fires, recovery runs

	if len(decided) != 2*len(updates) {
		t.Fatalf("%d MsgOptDecided reached the recoverer, want one per key from each of two recoveries", len(decided))
	}
	want := make(map[record.Key]Option)
	for _, up := range updates {
		want[up.Key] = Option{Tx: res[0].Tx, Update: up, KeySeq: 2} // each key's second proposal, after its insert
	}
	for _, m := range decided {
		if m.Key == "heal/p" {
			if m.HasOpt || m.Decision != DecAccept {
				t.Errorf("leader answered the physical record's rewrite with %+v (has %v, %v), want accept without contents",
					m.Opt, m.HasOpt, m.Decision)
			}
			continue
		}
		if !m.HasOpt || m.Decision != DecAccept || !reflect.DeepEqual(m.Opt, want[m.Key]) {
			t.Errorf("leader answered %s with %+v (has %v, %v), want the settled entry's %+v",
				m.Key, m.Opt, m.HasOpt, m.Decision, want[m.Key])
		}
	}
	if len(visible) < len(updates) {
		t.Fatalf("%d visibility messages healed the victim, want one per key", len(visible))
	}
	for _, m := range visible {
		if !m.Commit || !reflect.DeepEqual(m.Opt, want[m.Opt.Update.Key]) {
			t.Errorf("healing visibility %+v, want exactly %+v", m.Opt, want[m.Opt.Update.Key])
		}
	}
	for _, up := range updates {
		if got, want := victim.LineageFingerprint(up.Key), healthy.LineageFingerprint(up.Key); got != want {
			t.Errorf("%s: victim lineage %s, healthy replica %s", up.Key, got, want)
		}
		if n := len(victim.rs(up.Key).votes()); n != 0 {
			t.Errorf("%s: %d votes still unresolved on the victim", up.Key, n)
		}
	}
	if val, ver, _ := victim.Store().GetEncoded("heal/p"); ver != 2 || !bytes.Equal(val, updates[1].NewValue) {
		t.Errorf("physical update not healed: %s v%d", val.Decode(), ver)
	}
	if val, ver, _ := victim.Store().Get("heal/c"); ver != 4 || val.Attr("x") != 7 {
		t.Errorf("merged delta not healed with its span: %s v%d, want x=7 v4", val, ver)
	}
	if _, ver, _ := victim.Store().GetEncoded("heal/r"); ver != 1 {
		t.Errorf("read check moved its record to v%d", ver)
	}
}

// A WAL restart rebuilds the record's lineage summary exactly,
// including knowledge adopted wholesale from peers (persisted as
// summary snapshots, not per-decision records).
func TestRestartRebuildsLineageExactly(t *testing.T) {
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
	net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 13})
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 0
	dir := t.TempDir()
	fr := newFuzzWorldNode(t, net, cl, cfg, topology.USWest, dir)

	// Direct settles (per-decision oplog records).
	for i := 1; i <= 3; i++ {
		fr.node.onVisibility(MsgVisibility{Opt: Option{
			Tx: TxID(fmt.Sprintf("c0#%d", i)), KeySeq: uint64(i),
			Update: record.Commutative("rs/1", map[string]int64{"x": 1}),
		}, Commit: i != 2}) // seq 2 settles as an abort
	}
	// A wholesale adoption (summary-snapshot oplog record).
	var peer LineageSummary
	peer.Add("c1", 1, false, true)
	peer.Add("c1", 2, false, true)
	val, ver, _ := fr.node.Store().GetEncoded("rs/1")
	val = record.Commutative("rs/1", map[string]int64{"x": 2}).Apply(val)
	fr.node.adoptBase("rs/1", val, ver+2, func() LineageSummary {
		s := fr.node.rs("rs/1").decided.summary().unpack(&fr.node.lanes)
		s.Union(peer)
		return s
	}())

	want := fr.node.LineageFingerprint("rs/1")
	wantVal, wantVer, _ := fr.node.Store().GetEncoded("rs/1")
	fr.crashRestart(t, net, cl, cfg, topology.USWest)
	if got := fr.node.LineageFingerprint("rs/1"); got != want {
		t.Fatalf("replayed summary %s != pre-crash %s", got, want)
	}
	if v, vr, _ := fr.node.Store().GetEncoded("rs/1"); vr != wantVer || !bytes.Equal(v, wantVal) {
		t.Fatalf("replayed state %s v%d != pre-crash %s v%d", v.Decode(), vr, wantVal.Decode(), wantVer)
	}
	_ = fr.ds.Close()
}

// fuzzReplica is one replica under the merge fuzz: a real durable
// StorageNode whose crashes are modeled by closing and replaying its
// WALs (exactly the scenario harness's crash path).
type fuzzReplica struct {
	dir  string
	ds   *DurableState
	node *StorageNode
}

func newFuzzWorldNode(t *testing.T, net *simnet.Net, cl *topology.Cluster, cfg Config, dc topology.DC, dir string) *fuzzReplica {
	ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return &fuzzReplica{
		dir:  dir,
		ds:   ds,
		node: NewDurableStorageNode(topology.StorageID(dc, 0), dc, net, cl, cfg, ds),
	}
}

func (fr *fuzzReplica) crashRestart(t *testing.T, net *simnet.Net, cl *topology.Cluster, cfg Config, dc topology.DC) {
	fr.node.Halt()
	_ = fr.ds.Close()
	ds, err := OpenDurableOpts(fr.dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	fr.ds = ds
	fr.node = NewDurableStorageNode(topology.StorageID(dc, 0), dc, net, cl, cfg, ds)
}

// FuzzLineageMergeExact drives random forked apply schedules —
// duplicated and reordered visibility deliveries split across two
// real (WAL-backed) replicas, with crash/replay between applies — and
// asserts that summary-diff merging (adoptBase) converges both
// replicas to the sequential reference exactly: same value, same
// version, identical canonical summaries. It also pins that the merge
// is idempotent (re-adopting changes nothing) and commutative
// (merging A→B first or B→A first ends identically).
//
// The seed corpus encodes the DESIGN.md §5 "theoretical corner"
// shapes: equal-version forks whose values coincidentally sum equal,
// which value comparison cannot distinguish but summaries must.
func FuzzLineageMergeExact(f *testing.F) {
	// ops: byte0 = opCount; per op 2 bytes (flags, delta); rest = events.
	// Seed 1: two lanes, same delta, delivered to opposite replicas —
	// the coincidentally-equal equal-version fork.
	f.Add([]byte{2, 0x04, 1, 0x05, 1, 0x00, 0x05})
	// Seed 2: dup + reorder of a single lane's commits.
	f.Add([]byte{3, 0x04, 2, 0x04, 3, 0x04, 251, 0x08, 0x00, 0x04, 0x08, 0x01})
	// Seed 3: rejects interleaved with commits, plus a crash.
	f.Add([]byte{4, 0x04, 1, 0x00, 1, 0x04, 1, 0x00, 2, 0x02, 0x06, 0x03, 0x0a, 0x0e})
	// Seed 4: two merged (span 2) commits forked across the replicas,
	// then a crash — each graft decodes a settled entry's update, the
	// second from an entry rebuilt by oplog replay.
	f.Add([]byte{1, 0x0c, 3, 0x0d, 5, 0x00, 0x05, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nOps := int(data[0])%16 + 1
		if len(data) < 1+2*nOps {
			return
		}
		type fop struct {
			opt    Option
			commit bool
		}
		laneSeq := map[int]uint64{}
		ops := make([]fop, 0, nOps)
		for i := 0; i < nOps; i++ {
			flags, db := data[1+2*i], data[2+2*i]
			lane := int(flags) % 3
			laneSeq[lane]++
			delta := int64(int8(db))
			merged := 0
			if flags&0x08 != 0 {
				merged = 2 // a gateway-coalesced option (span 2)
			}
			up := record.Commutative("k", map[string]int64{"x": delta})
			up.Merged = merged
			ops = append(ops, fop{
				opt: Option{
					Tx:     TxID(fmt.Sprintf("c%d#%d", lane, laneSeq[lane])),
					KeySeq: laneSeq[lane],
					Update: up,
				},
				commit: flags&0x04 != 0,
			})
		}

		cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, Clients: 1, ClientDC: -1})
		net := simnet.New(simnet.Options{Latency: cl.LatencyWith(nil), Seed: 7})
		cfg := Defaults(ModeMDCC)
		cfg.PendingTimeout = 0
		base := t.TempDir()
		reps := []*fuzzReplica{
			newFuzzWorldNode(t, net, cl, cfg, topology.USWest, filepath.Join(base, "a")),
			newFuzzWorldNode(t, net, cl, cfg, topology.USEast, filepath.Join(base, "b")),
		}
		dcs := []topology.DC{topology.USWest, topology.USEast}

		// Schedule: deliver (possibly duplicated, reordered) visibility
		// to either or both replicas; crash/replay replicas in between.
		delivered := make(map[int]bool)
		for _, e := range data[1+2*nOps:] {
			kind := int(e) & 3
			idx := (int(e) >> 2) % nOps
			switch kind {
			case 3:
				ri := (int(e) >> 2) & 1
				reps[ri].crashRestart(t, net, cl, cfg, dcs[ri])
			case 2:
				reps[0].node.onVisibility(MsgVisibility{Opt: ops[idx].opt, Commit: ops[idx].commit})
				reps[1].node.onVisibility(MsgVisibility{Opt: ops[idx].opt, Commit: ops[idx].commit})
				delivered[idx] = true
			default:
				reps[kind].node.onVisibility(MsgVisibility{Opt: ops[idx].opt, Commit: ops[idx].commit})
				delivered[idx] = true
			}
		}

		// Sequential reference over every option either replica saw.
		var refVal record.Encoded
		var refVer record.Version
		var refSum LineageSummary
		for i, op := range ops {
			if !delivered[i] {
				continue
			}
			refSum.Add(laneOf(op.opt.Tx), op.opt.KeySeq, !op.commit, op.commit)
			if op.commit {
				refVal = op.opt.Update.Apply(refVal)
				refVer += op.opt.Update.Span()
			}
		}

		merge := func(dst, src *fuzzReplica) {
			val, ver, _ := src.node.Store().GetEncoded("k")
			dst.node.adoptBase("k", val, ver, src.node.rs("k").decided.summary().unpack(&src.node.lanes))
		}
		converge := func(a, b *fuzzReplica) {
			for i := 0; i < 3; i++ {
				merge(a, b)
				merge(b, a)
			}
		}
		state := func(r *fuzzReplica) string {
			val, ver, _ := r.node.Store().Get("k")
			return fmt.Sprintf("%s v%d %s", val, ver, r.node.LineageFingerprint("k"))
		}

		// Commutativity: converge a third pair in the opposite order.
		// (Fresh copies via WAL replay of the current state.)
		wantFromOrder := func(first, second int) string {
			reps[first].crashRestart(t, net, cl, cfg, dcs[first])
			reps[second].crashRestart(t, net, cl, cfg, dcs[second])
			for i := 0; i < 3; i++ {
				merge(reps[first], reps[second])
				merge(reps[second], reps[first])
			}
			return state(reps[first])
		}
		orderAB := wantFromOrder(0, 1)

		converge(reps[0], reps[1])
		sA, sB := state(reps[0]), state(reps[1])
		if sA != sB {
			t.Fatalf("replicas did not converge:\n A=%s\n B=%s", sA, sB)
		}
		valA, verA, _ := reps[0].node.Store().GetEncoded("k")
		if verA != refVer || !bytes.Equal(valA, refVal) {
			t.Fatalf("merged state diverges from sequential reference:\n got  %s v%d\n want %s v%d\n summary %s",
				valA.Decode(), verA, refVal.Decode(), refVer, reps[0].node.LineageFingerprint("k"))
		}
		if got := reps[0].node.LineageFingerprint("k"); got != refSum.String() {
			t.Fatalf("merged summary %s != reference %s", got, refSum.String())
		}
		// Idempotence: merging again changes nothing.
		merge(reps[0], reps[1])
		merge(reps[1], reps[0])
		if s := state(reps[0]); s != sA {
			t.Fatalf("merge not idempotent: %s -> %s", sA, s)
		}
		// Commutativity: the opposite merge order reached the same state.
		if orderAB != sA {
			t.Fatalf("merge order changed the result:\n B-first=%s\n A-first=%s", orderAB, sA)
		}
		for _, r := range reps {
			_ = r.ds.Close()
		}
	})
}
