package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/topology"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

func sampleDecisionEntry() oplogEntry {
	o := sampleOption()
	return oplogEntry{Key: o.Update.Key, Decision: appendDecision(nil, o.Tx, DecAccept, o.KeySeq, &o.Update)}
}

// bareDecisionEntry is a decision without contents.
func bareDecisionEntry(key record.Key, tx TxID) oplogEntry {
	return oplogEntry{Key: key, Decision: appendDecision(nil, tx, DecReject, 0, nil)}
}

func sampleSummaryEntry() oplogEntry {
	s := sampleLineage()
	return oplogEntry{Key: "item#9", Snapshot: &s}
}

func sampleSnapshotState() *snapshotState {
	return &snapshotState{
		KV: []kv.Entry{
			{Key: "cust#2", Value: sampleValue(), Version: 11},
			{Key: "gone#1", Value: record.Encode(record.Value{Tombstone: true}), Version: 5},
		},
		Oplog: []oplogEntry{sampleSummaryEntry(), sampleDecisionEntry(), bareDecisionEntry("item#9", "tx-6")},
		Cut:   3,
	}
}

// snapshotBytes encodes st as Checkpoint would, with the kv rows
// written from st.KV as they stand (a fuzzed list may repeat keys, so
// it cannot go through a store).
func snapshotBytes(st *snapshotState) []byte {
	return appendSnapshot(nil, st.Cut, func(b []byte) []byte {
		b = transport.AppendUvarint(b, uint64(len(st.KV)))
		for _, e := range st.KV {
			b = kv.AppendEntry(b, e)
		}
		return b
	}, st.Oplog)
}

// diskSamples lists the disk records core writes, as the exact bytes
// that reach the node's log or the snapshot file.
func diskSamples() map[string][]byte {
	d, s := sampleDecisionEntry(), sampleSummaryEntry()
	return map[string][]byte{
		"oplog_decision": appendOplogEntry([]byte{oplogFormat}, &d),
		"oplog_summary":  appendOplogEntry([]byte{oplogFormat}, &s),
		"snapshot":       snapshotBytes(sampleSnapshotState()),
	}
}

// TestDiskGolden pins the on-disk layouts next to the wire vectors: a
// change must take a new format byte (so existing directories are
// refused, not mis-read) and a deliberate -update. The kv put record's
// vector lives with its encoder, in internal/kv.
func TestDiskGolden(t *testing.T) {
	for name, raw := range diskSamples() {
		checkGolden(t, "disk_golden", name, raw)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	for _, want := range []oplogEntry{sampleDecisionEntry(), sampleSummaryEntry(), bareDecisionEntry("k", "t")} {
		got, err := decodeOplogRecord(appendOplogEntry([]byte{oplogFormat}, &want))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("oplog entry round trip: got %+v, %v; want %+v", got, err, want)
		}
	}
	want := sampleSnapshotState()
	got, err := decodeSnapshot(snapshotBytes(want))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot round trip: got %+v, %v; want %+v", got, err, want)
	}
	// A store holding those entries writes the same rows from its
	// stored form: the snapshot a Checkpoint takes is the golden one.
	store := kv.NewMemory()
	for _, e := range want.KV {
		store.PutEncoded(e.Key, e.Value, e.Version)
	}
	fromStore := appendSnapshot(nil, want.Cut, store.AppendEntries, want.Oplog)
	if !bytes.Equal(fromStore, snapshotBytes(want)) {
		t.Errorf("snapshot written from a store differs\n got %x\nwant %x", fromStore, snapshotBytes(want))
	}
	// Every strict prefix of a record is refused, typed.
	for name, raw := range diskSamples() {
		for n := 0; n < len(raw); n++ {
			var err error
			if name == "snapshot" {
				_, err = decodeSnapshot(raw[:n])
			} else {
				_, err = decodeOplogRecord(raw[:n])
			}
			if !errors.Is(err, wal.ErrFormat) {
				t.Fatalf("%s truncated to %d of %d bytes: err = %v, want wal.ErrFormat", name, n, len(raw), err)
			}
		}
	}
}

// TestSettledBytesMatchDiskGolden: when a durable node settles an
// option, the decision record it appends to its log — the decided
// log's packed entry, expanded — and the entry its next checkpoint
// writes are the bytes the golden vector pins, so the decided log can
// pack its entries against the lane table without moving the record's
// layout.
func TestSettledBytesMatchDiskGolden(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cl := topology.NewCluster(topology.Layout{NodesPerDC: 1, ClientDC: -1})
	n := NewDurableStorageNode(cl.Storage[0].ID, cl.Storage[0].DC, &codecNet{}, cl, Defaults(ModeMDCC), ds)
	opt := sampleOption()
	n.settleOption(opt.Update.Key, n.rs(opt.Update.Key), DecAccept, opt)
	n.Checkpoint()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if err := log.ReplayFrom(0, func(p []byte) error { recs = append(recs, bytes.Clone(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if len(recs) != 1 {
		t.Fatalf("%d log records, want 1", len(recs))
	}
	checkGolden(t, "disk_golden", "oplog_decision", recs[0])

	snapDir := filepath.Join(dir, "snap")
	seqs, err := wal.ListSnapshots(snapDir)
	if err != nil || len(seqs) != 1 {
		t.Fatalf("snapshots %v, %v", seqs, err)
	}
	payload, err := wal.ReadSnapshot(snapDir, seqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, recs[0][1:]) { // the record less its format byte
		t.Errorf("checkpoint does not carry the golden decision entry\nsnapshot %x\nentry    %x", payload, recs[0][1:])
	}
}

// gobBytes is how the parent commit serialized its disk records.
func gobBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobDataDirRefused builds data directories this build cannot
// read — gob where the node's log or checkpoint snapshot holds a
// record (how an older commit serialized), and the two directory
// layouts older builds wrote — and requires each to be refused with
// the typed wal.ErrFormat (not wal.ErrCorrupt: the bytes are what
// their writer meant, and the harness's wipe-on-corruption must not
// fire by itself) with no DurableState handed back and nothing created
// beside the old data, so none of it is ever applied or shadowed.
func TestGobDataDirRefused(t *testing.T) {
	appendTo := func(t *testing.T, dir string, records ...[]byte) {
		t.Helper()
		log, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			if err := log.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	goodStore := kv.AppendEntry([]byte{0xD1}, kv.Entry{Key: "k", Version: 1})
	decision := sampleDecisionEntry()
	goodDecision := appendOplogEntry([]byte{oplogFormat}, &decision)
	cases := map[string]func(t *testing.T, dir string){
		"store": func(t *testing.T, dir string) {
			appendTo(t, filepath.Join(dir, "wal"), goodStore, gobBytes(t, &kv.Entry{Key: "cust#2", Value: sampleValue(), Version: 11}))
		},
		"oplog": func(t *testing.T, dir string) {
			appendTo(t, filepath.Join(dir, "wal"), goodStore, goodDecision, gobBytes(t, &decision))
		},
		"snapshot": func(t *testing.T, dir string) {
			appendTo(t, filepath.Join(dir, "wal"), goodStore)
			if err := wal.WriteSnapshot(filepath.Join(dir, "snap"), 1, gobBytes(t, sampleSnapshotState()), true); err != nil {
				t.Fatal(err)
			}
		},
		"snapshot behind a newer corrupt one": func(t *testing.T, dir string) {
			snapDir := filepath.Join(dir, "snap")
			if err := wal.WriteSnapshot(snapDir, 1, gobBytes(t, sampleSnapshotState()), true); err != nil {
				t.Fatal(err)
			}
			if err := wal.WriteSnapshot(snapDir, 2, snapshotBytes(sampleSnapshotState()), true); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(snapDir, "snap-00000002.snap")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// The layout the parent of the one-log change wrote: puts in
		// store/, decisions in oplog/, and a 0xD3 snapshot carrying a
		// cut for each (store cut 1, oplog cut 1, no rows).
		"two-log layout": func(t *testing.T, dir string) {
			appendTo(t, filepath.Join(dir, "store"), goodStore)
			appendTo(t, filepath.Join(dir, "oplog"), goodDecision)
			if err := wal.WriteSnapshot(filepath.Join(dir, "snap"), 1, []byte{0xD3, 1, 1, 0, 0}, true); err != nil {
				t.Fatal(err)
			}
		},
		// The kv-only layout: WAL segments of puts at top level.
		"kv-only layout": func(t *testing.T, dir string) {
			appendTo(t, dir, goodStore)
		},
	}
	names := func(t *testing.T, dir string) []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return out
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			build(t, dir)
			before := names(t, dir)
			ds, err := OpenDurableOpts(dir, DurableOptions{NoSync: true})
			if !errors.Is(err, wal.ErrFormat) {
				t.Errorf("OpenDurableOpts error = %v, want wal.ErrFormat", err)
			}
			if errors.Is(err, wal.ErrCorrupt) {
				t.Errorf("format refusal %v also reads as wal.ErrCorrupt", err)
			}
			if ds != nil {
				t.Error("OpenDurableOpts returned state alongside the error")
				ds.Close()
			}
			if after := names(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("refused open left %v beside the old data %v", after, before)
			}
		})
	}
	// A layout refusal names the directory, so the operator knows which
	// node's data to move aside.
	dir := t.TempDir()
	cases["two-log layout"](t, dir)
	if _, err := OpenDurableOpts(dir, DurableOptions{NoSync: true}); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("layout refusal %v does not name %s", err, dir)
	}
}

// FuzzDiskDecode throws raw bytes at the oplog-entry and snapshot
// decoders under the same contract as FuzzWireDecode: an error or a
// value, never a panic or an allocation sized by a corrupt count. What
// decodes must re-encode to something that decodes to the same value.
func FuzzDiskDecode(f *testing.F) {
	for _, raw := range diskSamples() {
		f.Add(raw)
	}
	f.Add([]byte{snapshotFormat, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{oplogFormat, 1, 'k', 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		if e, err := decodeOplogRecord(b); err == nil {
			again, err := decodeOplogRecord(appendOplogEntry([]byte{oplogFormat}, &e))
			if err != nil || !reflect.DeepEqual(again, e) {
				t.Fatalf("oplog entry does not survive re-encoding: %+v -> %+v, %v", e, again, err)
			}
		}
		if st, err := decodeSnapshot(b); err == nil {
			again, err := decodeSnapshot(snapshotBytes(st))
			if err != nil || !reflect.DeepEqual(again, st) {
				t.Fatalf("snapshot does not survive re-encoding: %+v -> %+v, %v", st, again, err)
			}
		}
	})
}
