package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// physicalRecord settles three options on key, one node, on the fast
// path: an insert (lane c0, sequence 1) and a rewrite at read version 1
// (sequence 2), both committed, then a rewrite at read version 2
// (sequence 3) discarded. The record is at version 2 and its class is
// locked physical.
func physicalRecord(t *testing.T, key record.Key) *residentWorld {
	t.Helper()
	w := newResidentWorld(t)
	w.keys = []record.Key{key}
	for seq := uint64(1); seq <= 3; seq++ {
		opt := Option{
			Tx: TxID(fmt.Sprintf("gw/us-west/c0#%d", seq)), Coord: "gw/us-west/c0",
			Update:   record.Physical(key, record.Version(seq-1), record.Value{Blob: []byte("8 bytes.")}),
			WriteSet: []record.Key{key}, KeySeq: seq, WriteSeqs: []uint64{seq},
		}
		w.net.deliver(t, "c0", w.n.ID(), MsgProposeBatch{Opts: []Option{opt}})
		w.net.deliver(t, "c0", w.n.ID(), visibilityFor(opt, seq < 3))
	}
	if _, ver, _ := w.n.Store().GetEncoded(key); ver != 2 {
		t.Fatalf("setup: record at v%d, want v2", ver)
	}
	if k := w.n.rs(key).decided.kind; k != record.KindPhysical {
		t.Fatalf("setup: class lock %v, want physical", k)
	}
	return w
}

// TestAdoptBasePhysicalContainment is adoptBase's physical-containment
// rule on a record whose class is locked physical: a base whose branch
// holds commutative applies (Deltas) is refused, and counted in
// AdoptRefused, exactly when its summary lacks an option this replica
// settled as accepted. A reject it lacks proves nothing, and a higher
// pure-physical base supersedes every local apply by construction.
func TestAdoptBasePhysicalContainment(t *testing.T) {
	const key = record.Key("phys/1")
	base := record.Encode(record.Value{Blob: []byte("adopted")})
	summary := func(deltas, physical bool, lanes ...func(*LineageSummary)) LineageSummary {
		s := LineageSummary{Deltas: deltas, Physical: physical}
		for _, add := range lanes {
			add(&s)
		}
		return s
	}
	settled := func(lane string, accepted []uint64, rejected ...uint64) func(*LineageSummary) {
		return func(s *LineageSummary) {
			for _, seq := range accepted {
				s.Add(lane, seq, false, false)
			}
			for _, seq := range rejected {
				s.Add(lane, seq, true, false)
			}
		}
	}
	deltas := settled("gw/us-east/c9", []uint64{1, 2, 3})
	for _, tc := range []struct {
		name    string
		lineage LineageSummary
		ver     record.Version
		adopted bool
	}{
		{"deltas base lacking a local accepted rewrite",
			summary(true, false, settled("gw/us-west/c0", []uint64{1}, 3), deltas), 5, false},
		{"deltas base lacking the local insert",
			summary(true, false, settled("gw/us-west/c0", []uint64{2}, 3), deltas), 5, false},
		{"deltas base holding every local accept",
			summary(true, false, settled("gw/us-west/c0", []uint64{1, 2}, 3), deltas), 5, true},
		{"deltas base lacking only a local reject",
			summary(true, false, settled("gw/us-west/c0", []uint64{1, 2}), deltas), 5, true},
		{"higher pure-physical base",
			summary(false, true, settled("gw/us-west/c0", []uint64{1, 2}, 3), settled("gw/us-east/c1", []uint64{1})), 3, true},
		{"higher pure-physical base lacking local accepts",
			summary(false, true, settled("gw/us-east/c1", []uint64{1, 2})), 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := physicalRecord(t, key)
			n := w.n
			before := n.rs(key).decided.summary().unpack(&n.lanes)
			got := n.adoptBase(key, base, tc.ver, tc.lineage)
			if got != tc.adopted {
				t.Fatalf("adoptBase = %v, want %v", got, tc.adopted)
			}
			refused := int64(0)
			if !tc.adopted {
				refused = 1
			}
			if n.Metrics().AdoptRefused != refused {
				t.Errorf("AdoptRefused = %d, want %d", n.Metrics().AdoptRefused, refused)
			}
			checkGauges(t, n)
			_, ver, _ := n.Store().GetEncoded(key)
			after := n.rs(key).decided.summary().unpack(&n.lanes)
			if !tc.adopted {
				if ver != 2 || after.String() != before.String() {
					t.Errorf("refused, yet the record moved to v%d with summary %s (was %s)", ver, after, before)
				}
				return
			}
			want := before.Clone()
			want.Union(tc.lineage)
			if ver != tc.ver || after.String() != want.String() {
				t.Errorf("adopted at v%d with summary %s, want v%d and %s", ver, after, tc.ver, want)
			}
		})
	}
}

// TestPhysicalSettleBytesMatchDiskGolden is TestSettledBytesMatchDiskGolden
// for a physical record: a durable node settles an insert, the rewrite
// that locks the record's class physical, and a rewrite on the locked
// record, and the three decision records its log holds are the bytes
// the golden vector pins (each behind its uvarint length) — written
// from the option, since the record keeps no entry to expand. Its
// checkpoint carries the record's summary and no decision body.
func TestPhysicalSettleBytesMatchDiskGolden(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, ClientDC: -1})
	n := NewDurableStorageNode(cl.Storage[0].ID, cl.Storage[0].DC, &codecNet{}, cl, Defaults(ModeMDCC), ds)
	rewrite := samplePhysicalOption()
	insert := rewrite
	insert.Tx, insert.KeySeq = "tx-7", rewrite.KeySeq-1
	insert.Update.ReadVersion = 0
	locked := rewrite
	locked.Tx, locked.KeySeq = "tx-9", rewrite.KeySeq+1
	locked.Update.ReadVersion++
	key := rewrite.Update.Key
	for _, opt := range []Option{insert, rewrite, locked} {
		n.settleOption(key, n.rs(key), DecAccept, opt)
	}
	if k := n.rs(key).decided.kind; k != record.KindPhysical {
		t.Fatalf("class lock %v after the rewrites, want physical", k)
	}
	n.Checkpoint()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	// The checkpoint carries the record's summary and no decision body.
	snapDir := filepath.Join(dir, "snap")
	seqs, err := wal.ListSnapshots(snapDir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("snapshots %v, %v", seqs, err)
	}
	payload, err := wal.ReadSnapshot(snapDir, seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeSnapshot(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Oplog) != 1 || st.Oplog[0].Snapshot == nil || st.Oplog[0].Snapshot.String() != n.LineageFingerprint(key) {
		t.Errorf("checkpoint carries %d entries for the physical record, want its summary %s alone", len(st.Oplog), n.LineageFingerprint(key))
	}

	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var recs []byte
	count := 0
	if err := log.ReplayFrom(0, func(p []byte) error {
		recs = transport.AppendBytes(recs, p)
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if count != 3 {
		t.Fatalf("%d log records, want 3", count)
	}
	checkGolden(t, "disk_golden", "oplog_decision_physical", recs)
}

// TestRecoveryWithoutContents: the coordinator of a two-key physical
// transaction learns commit and dies, its visibility delivered
// everywhere except to one replica of one key, which is left holding a
// stuck vote. Both records are physical, so their leaders keep no
// decided entries and answer the recovery from their summaries, without
// contents: the replica heals its key from its own vote, and the key
// whose replicas all settled needs no contents at all. Every replica of
// both keys ends at the committed value and summary; each option is
// executed once per replica, none discarded, and no leader runs a round
// to decide either again.
func TestRecoveryWithoutContents(t *testing.T) {
	const a, b = record.Key("rwc/a"), record.Key("rwc/b")
	cfg := Defaults(ModeMDCC)
	cfg.PendingTimeout = 2 * time.Second
	cfg.SyncInterval = 0 // anti-entropy would heal the replica before recovery is asked to
	w := newWorld(t, cfg, 1, 1, 52)
	value := func(n int64) record.Value { return record.Value{Attrs: map[string]int64{"n": n}} }
	if !w.commit(0, record.Insert(a, value(1)), record.Insert(b, value(1))).Committed {
		t.Fatal("insert failed")
	}
	if !w.commit(0, record.Physical(a, 1, value(2)), record.Physical(b, 1, value(2))).Committed {
		t.Fatal("first rewrite failed")
	}
	w.settle()
	for _, n := range w.nodes {
		for _, k := range []record.Key{a, b} {
			if r := n.rs(k); r.decided.kind != record.KindPhysical || r.decided.len() != 0 {
				t.Fatalf("%s %s: class %v, %d decided entries; want physical and none", n.ID(), k, r.decided.kind, r.decided.len())
			}
		}
	}

	leader := w.node(w.nodes[0].leaderFor(a))
	var stuck *StorageNode
	for _, id := range w.cl.Replicas(a) {
		if id != leader.ID() {
			stuck = w.node(id)
			break
		}
	}
	// The stuck replica never hears a's visibility from the coordinator.
	coord := w.coords[0].ID()
	var decided []MsgOptDecided
	w.net.Register(stuck.ID(), func(env transport.Envelope) {
		if m, ok := env.Msg.(MsgOptDecided); ok {
			decided = append(decided, m)
		}
		if env.From == coord {
			switch m := env.Msg.(type) {
			case MsgVisibility:
				if m.Opt.Update.Key == a {
					return
				}
			case MsgVisibilityBatch:
				var kept []MsgVisibility
				for _, it := range m.Items {
					if it.Opt.Update.Key != a {
						kept = append(kept, it)
					}
				}
				env.Msg = MsgVisibilityBatch{Items: kept}
			}
		}
		stuck.handle(env)
	})
	var before Metrics
	for _, n := range w.nodes {
		before.Add(n.Metrics())
	}
	var res []CommitResult
	w.commitAsync(0, &res, record.Physical(a, 2, value(3)), record.Physical(b, 2, value(3)))
	if !w.net.RunUntil(func() bool { return len(res) == 1 }, time.Minute) || !res[0].Committed {
		t.Fatalf("transaction outcome %+v, want committed", res)
	}
	w.net.RunFor(time.Second)
	var rest []transport.NodeID
	for _, n := range w.nodes {
		rest = append(rest, n.ID())
	}
	w.net.Partition([]transport.NodeID{coord}, rest) // the coordinator dies
	if stuck.rs(a).voteIndex(OptionID{Tx: res[0].Tx, Key: a}) < 0 {
		t.Fatal("the replica was to hold a stuck vote on a")
	}
	for _, n := range w.nodes {
		if n != stuck && len(n.rs(a).votes())+len(n.rs(b).votes()) != 0 {
			t.Fatalf("%s holds a vote it was to settle", n.ID())
		}
	}

	w.net.RunFor(10 * time.Second) // the sweep fires, recovery runs

	if len(decided) != 2 {
		t.Fatalf("%d MsgOptDecided reached the recovering replica, want one per key", len(decided))
	}
	for _, m := range decided {
		if m.HasOpt || m.Decision != DecAccept {
			t.Errorf("the leader of %s answered %v with contents %v, want accept from its summary", m.Key, m.Decision, m.HasOpt)
		}
	}
	want := record.Encode(value(3))
	for _, k := range []record.Key{a, b} {
		fingerprint := leader.LineageFingerprint(k)
		for _, id := range w.cl.Replicas(k) {
			n := w.node(id)
			if val, ver, _ := n.Store().GetEncoded(k); ver != 3 || !bytes.Equal(val, want) {
				t.Errorf("%s %s: %s v%d, want the committed %s v3", id, k, val.Decode(), ver, want.Decode())
			}
			if got := n.LineageFingerprint(k); got != fingerprint {
				t.Errorf("%s %s: summary %s, leader %s", id, k, got, fingerprint)
			}
			if len(n.rs(k).votes()) != 0 || n.rs(k).decided.len() != 0 {
				t.Errorf("%s %s: %d votes, %d decided entries left", id, k, len(n.rs(k).votes()), n.rs(k).decided.len())
			}
		}
	}
	var after Metrics
	for _, n := range w.nodes {
		checkGauges(t, n)
		after.Add(n.Metrics())
	}
	if got, want := after.Executed-before.Executed, int64(len(w.cl.Replicas(a))+len(w.cl.Replicas(b))); got != want {
		t.Errorf("%d options executed across the replicas, want %d: one per replica per key", got, want)
	}
	if after.Discarded != before.Discarded || after.Phase1 != before.Phase1 || after.Phase2 != before.Phase2 {
		t.Errorf("recovery re-decided: discarded %d → %d, Phase1 %d → %d, Phase2 %d → %d",
			before.Discarded, after.Discarded, before.Phase1, after.Phase1, before.Phase2, after.Phase2)
	}
}

// TestPhysicalRecordHistoryFlat: one physical record settles 10 000
// options on two coordinator lanes, one of which rotates to a new lane
// halfway. It keeps no decided entry, and its buffer is its packed
// summary and nothing more — three lanes, each one watermark range —
// so what it holds follows its lanes, not its history. The gauges say
// the same.
func TestPhysicalRecordHistoryFlat(t *testing.T) {
	const options = 10000
	w := newResidentWorld(t)
	w.keys = w.keys[:1]
	key := w.keys[0]
	lanes := []string{"gw/us-west/c0~MG3X9K2A", "gw/us-west/c1~MG3X9K2A"}
	seqs := map[string]uint64{}
	mint := func(_, round, _ int) (TxID, transport.NodeID, uint64) {
		if round == options/2 {
			lanes[0] = "gw/us-west/c0~MG3X9K2A.2" // the lane rotates to a new era
		}
		lane := lanes[round%2]
		seqs[lane]++
		return TxID(fmt.Sprintf("%s#%d", lane, seqs[lane])), transport.NodeID(lane), seqs[lane]
	}
	r := w.n.rs(key)
	for round := 0; round < options; round++ {
		w.settleRound(round, mint)
	}
	if _, ver, _ := w.n.Store().GetEncoded(key); ver != options {
		t.Fatalf("record at v%d, want v%d", ver, options)
	}
	if got := r.decided.len(); got != 0 {
		t.Errorf("the physical record holds %d decided entries, want none", got)
	}
	if got, want := cap(r.decided.buf), len(r.decided.summary()); got != want {
		t.Errorf("the buffer's capacity is %d B, its summary %d B: want nothing else", got, want)
	}
	s := r.decided.summary().unpack(&w.n.lanes)
	if len(s.Lanes) != 3 {
		t.Fatalf("summary %s, want three lanes", s)
	}
	for _, l := range s.Lanes {
		if len(l.Done) != 1 || l.Done[0].Lo != 1 || len(l.Rejected) != 0 {
			t.Errorf("lane %s settled %v, rejected %v: want one watermark range", l.Lane, l.Done, l.Rejected)
		}
	}
	if m := w.n.Metrics(); m.DecidedEntries != 0 || m.DecidedBytes != int64(cap(r.decided.buf)) || m.DecidedReleased != 0 {
		t.Errorf("gauges read %d entries, %d B (released %d), want 0 entries, %d B and nothing released",
			m.DecidedEntries, m.DecidedBytes, m.DecidedReleased, cap(r.decided.buf))
	}
	t.Logf("%d options on one physical record: %d B of summary, %s", options, len(r.decided.summary()), s)
}

// TestReopenDropsPhysicalEntries: a data directory whose checkpoint
// carries a physical record's decision bodies behind its summary (what
// every checkpoint carried before a physical record stopped keeping
// entries) reopens to the same store and summaries. The physical record
// keeps no entries, and its summary answers every option it settled;
// a commutative record beside it keeps its entries.
func TestReopenDropsPhysicalEntries(t *testing.T) {
	const phys, comm = record.Key("reopen/p"), record.Key("reopen/c")
	dir := t.TempDir()
	ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Each record as snapshotOplog wrote it: its summary, then its
	// decision bodies in settle order.
	var state []oplogEntry
	var physOpts []Option
	checkpointed := func(key record.Key, lane string, up func(seq uint64) record.Update) LineageSummary {
		var sum LineageSummary
		var bodies []oplogEntry
		for seq := uint64(1); seq <= 3; seq++ {
			opt := Option{Tx: TxID(fmt.Sprintf("%s#%d", lane, seq)), KeySeq: seq, Update: up(seq)}
			sum.Add(lane, seq, false, opt.Update.Kind == record.KindCommutative)
			bodies = append(bodies, oplogEntry{Key: key, Decision: appendDecision(nil, opt.Tx, DecAccept, seq, &opt.Update)})
			if key == phys {
				physOpts = append(physOpts, opt)
			}
		}
		sum.Physical = key == phys
		state = append(append(state, oplogEntry{Key: key, Snapshot: &sum}), bodies...)
		return sum
	}
	physSum := checkpointed(phys, "gw/us-west/c0", func(seq uint64) record.Update {
		return record.Physical(phys, record.Version(seq-1), record.Value{Blob: []byte("8 bytes.")})
	})
	commSum := checkpointed(comm, "gw/us-west/c1", func(uint64) record.Update {
		return record.Commutative(comm, map[string]int64{"n": 1})
	})
	physVal := record.Encode(record.Value{Blob: []byte("8 bytes.")})
	if err := ds.Store.PutEncoded(phys, physVal, 3); err != nil {
		t.Fatal(err)
	}
	if err := ds.Store.Put(comm, record.Value{Attrs: map[string]int64{"n": 3}}, 3); err != nil {
		t.Fatal(err)
	}
	if err := ds.Checkpoint(state); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err = OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, ClientDC: -1})
	n := NewDurableStorageNode(cl.Storage[0].ID, cl.Storage[0].DC, &codecNet{}, cl, Defaults(ModeMDCC), ds)
	if val, ver, _ := n.Store().GetEncoded(phys); ver != 3 || !bytes.Equal(val, physVal) {
		t.Errorf("physical record reopened at %s v%d", val.Decode(), ver)
	}
	if v, ver, _ := n.Store().Get(comm); ver != 3 || v.Attr("n") != 3 {
		t.Errorf("commutative record reopened at %v v%d", v, ver)
	}
	p, c := n.rs(phys), n.rs(comm)
	if got := n.LineageFingerprint(phys); got != physSum.String() {
		t.Errorf("physical summary %s, want %s", got, physSum)
	}
	if got := n.LineageFingerprint(comm); got != commSum.String() {
		t.Errorf("commutative summary %s, want %s", got, commSum)
	}
	if p.decided.kind != record.KindPhysical || p.decided.len() != 0 || cap(p.decided.buf) != len(p.decided.summary()) {
		t.Errorf("physical record: class %v, %d entries, %d B buffer for a %d B summary; want physical, no entries, the summary alone",
			p.decided.kind, p.decided.len(), cap(p.decided.buf), len(p.decided.summary()))
	}
	for _, opt := range physOpts {
		if d, ok := n.settled(p, opt.Tx, opt.KeySeq); !ok || d != DecAccept {
			t.Errorf("%s settles as %v %v after the reopen", opt.Tx, d, ok)
		}
	}
	if c.decided.kind != record.KindCommutative || c.decided.len() != 3 {
		t.Errorf("commutative record: class %v, %d entries; want commutative and 3", c.decided.kind, c.decided.len())
	}
	if m := n.Metrics(); m.DecidedEntries != 3 || m.DecidedBytes != int64(cap(p.decided.buf)+cap(c.decided.buf)) {
		t.Errorf("gauges read %d entries, %d B; want 3 and %d B", m.DecidedEntries, m.DecidedBytes, cap(p.decided.buf)+cap(c.decided.buf))
	}
}

// checkGauges fails the test unless n's DecidedEntries and DecidedBytes
// gauges equal what its records' decided logs hold.
func checkGauges(t *testing.T, n *StorageNode) {
	t.Helper()
	var entries, bytes int64
	n.eachRecord(func(_ record.Key, r *recState) bool {
		entries += int64(r.decided.len())
		bytes += int64(cap(r.decided.buf))
		return true
	})
	if m := n.Metrics(); m.DecidedEntries != entries || m.DecidedBytes != bytes {
		t.Errorf("%s: gauges read %d entries, %d B; its logs hold %d entries, %d B",
			n.ID(), m.DecidedEntries, m.DecidedBytes, entries, bytes)
	}
}
