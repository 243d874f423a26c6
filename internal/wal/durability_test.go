package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// --- Group commit ---

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("Appends = %d, want %d", st.Appends, workers*per)
	}
	if st.SyncedAppends != workers*per {
		t.Fatalf("SyncedAppends = %d, want %d (every ack must be covered by a sync)", st.SyncedAppends, workers*per)
	}
	if st.Syncs == 0 || st.Syncs > st.SyncedAppends {
		t.Fatalf("Syncs = %d out of range", st.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	n := 0
	if err := l2.ReplayFrom(0, func([]byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != workers*per {
		t.Fatalf("replayed %d records, want %d", n, workers*per)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	// Appends that arrive while a sync is in flight must coalesce into
	// the next one. The test holds the leader slot itself to stand in
	// for that in-flight sync, so the result does not depend on how
	// slow the disk under t.TempDir is.
	l, err := Open(t.TempDir(), Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.mu.Lock()
	l.syncing = true
	l.mu.Unlock()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := l.Append([]byte{byte(i)}); err != nil {
				t.Errorf("Append: %v", err)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for queued := 0; queued < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d appends queued behind the in-flight sync", queued, n)
		}
		time.Sleep(time.Millisecond)
		l.mu.Lock()
		queued = len(l.pending)
		l.mu.Unlock()
	}
	l.syncLeader() // the in-flight sync ends; its successor takes everything queued
	wg.Wait()
	st := l.Stats()
	if st.Syncs != 1 || st.MaxBatch != n {
		t.Fatalf("%d appends queued behind one sync took %d syncs, largest batch %d; want 1 sync of %d",
			n, st.Syncs, st.MaxBatch, n)
	}
}

// --- Fault injection ---

func TestFailSyncPoisonsLog(t *testing.T) {
	for _, mode := range []Options{
		{NoSync: true},
		{},
		{GroupCommit: true},
	} {
		f := NewFaults()
		mode.Faults = f
		dir := t.TempDir()
		l, err := Open(dir, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("ok")); err != nil {
			t.Fatal(err)
		}
		f.FailSync(true)
		if err := l.Append([]byte("lost")); !errors.Is(err, ErrDiskFault) {
			t.Fatalf("mode %+v: Append under FailSync = %v, want ErrDiskFault", mode, err)
		}
		f.FailSync(false)
		// Poisoned until reopen, even though the fault is gone.
		if err := l.Append([]byte("still-poisoned")); !errors.Is(err, ErrDiskFault) {
			t.Fatalf("mode %+v: poisoned Append = %v, want ErrDiskFault", mode, err)
		}
		l.Close()
		l2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		// The refused record was cut: a reopen replays only what was
		// acknowledged.
		var got []string
		if err := l2.ReplayFrom(0, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != "ok" {
			t.Fatalf("mode %+v: reopen replayed %q, want only the acknowledged record", mode, got)
		}
		if err := l2.Append([]byte("fresh")); err != nil {
			t.Fatalf("reopened log still failing: %v", err)
		}
		l2.Close()
	}
}

// TestFailedSyncCutsWhatItRefused arms FailSync while group-commit
// appenders are in flight: a reopen must replay exactly the records
// whose Append returned nil — none of a failed batch, none queued
// behind it — whichever batch the fault lands in.
func TestFailedSyncCutsWhatItRefused(t *testing.T) {
	f := NewFaults()
	dir := t.TempDir()
	l, err := Open(dir, Options{GroupCommit: true, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var mu sync.Mutex
	acked := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec := fmt.Sprintf("w%d-%d", w, i)
				if l.Append([]byte(rec)) != nil {
					return
				}
				mu.Lock()
				acked[rec] = true
				mu.Unlock()
			}
		}(w)
	}
	for l.Appends() < workers*per/4 {
		time.Sleep(100 * time.Microsecond)
	}
	f.FailSync(true)
	wg.Wait()
	l.Close()

	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	replayed := map[string]bool{}
	if err := l2.ReplayFrom(0, func(p []byte) error { replayed[string(p)] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if len(acked) == workers*per {
		t.Fatal("every append was acknowledged: the fault never fired")
	}
	for rec := range replayed {
		if !acked[rec] {
			t.Errorf("reopen replayed %s, whose Append failed", rec)
		}
	}
	for rec := range acked {
		if !replayed[rec] {
			t.Errorf("reopen lost %s, whose Append succeeded", rec)
		}
	}
}

func TestTornWriteTruncatedOnReopen(t *testing.T) {
	f := NewFaults()
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	f.TornWrite(5)
	if err := l.Append([]byte("torn-away")); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("torn Append = %v, want ErrDiskFault", err)
	}
	// Poisoned like a failed sync.
	if err := l.Append([]byte("after")); !errors.Is(err, ErrDiskFault) {
		t.Fatalf("post-tear Append = %v, want ErrDiskFault", err)
	}
	l.Close()
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open after torn write: %v", err)
	}
	defer l2.Close()
	var got []string
	if err := l2.ReplayFrom(0, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2] != "rec-2" {
		t.Fatalf("after tear replayed %v, want the 3 acked records", got)
	}
}

func TestBitFlipSurfacesCorrupt(t *testing.T) {
	f := NewFaults()
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentSize: 64, Faults: f})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(bytes.Repeat([]byte{'a'}, 40))
	f.BitFlip()
	// The flipped append itself succeeds: corruption is silent at
	// write time, caught by CRC at replay.
	if err := l.Append(bytes.Repeat([]byte{'b'}, 40)); err != nil {
		t.Fatalf("bit-flipped Append = %v, want nil (silent)", err)
	}
	l.Append(bytes.Repeat([]byte{'c'}, 40)) // push the flip out of the tail
	l.Close()

	l2, err := Open(dir, Options{NoSync: true, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.ReplayFrom(0, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of flipped mid-segment record = %v, want ErrCorrupt", err)
	}
}

// Bit rot mid-way through the ACTIVE segment must surface as typed
// corruption at reopen — never be absorbed by the torn-tail truncation
// (which would silently drop the valid, acknowledged records behind
// it). Only an invalid region running to end-of-file is a torn tail.
func TestBitRotMidActiveSegmentIsCorruptNotTorn(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true}) // default segment size: one shared active segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := SegmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+1] ^= 0x01 // payload byte of the first record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-segment rot = %v, want ErrCorrupt", err)
	}
}

// A corrupt FINAL record is indistinguishable from a crash-torn append
// and is still truncated away quietly.
func TestCorruptFinalRecordTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := SegmentPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01 // payload byte of the last record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open over corrupt final record = %v, want torn-tail truncation", err)
	}
	defer l2.Close()
	var got []string
	if err := l2.ReplayFrom(0, func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "rec-1" {
		t.Fatalf("replayed %v, want the 2 intact records", got)
	}
}

// --- Cut / TruncateBefore / ReplayFrom ---

func TestCutTruncateReplayFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true, SegmentSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		l.Append([]byte(fmt.Sprintf("old-%d", i)))
	}
	cut, err := l.Cut()
	if err != nil {
		t.Fatal(err)
	}
	if cut == 0 {
		t.Fatalf("cut = 0, want a rolled segment")
	}
	// Cut on an empty active segment is idempotent.
	if again, _ := l.Cut(); again != cut {
		t.Fatalf("empty Cut = %d, want %d", again, cut)
	}
	for i := 0; i < 3; i++ {
		l.Append([]byte(fmt.Sprintf("new-%d", i)))
	}
	var tail []string
	if err := l.ReplayFrom(cut, func(p []byte) error { tail = append(tail, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 || tail[0] != "new-0" {
		t.Fatalf("ReplayFrom(cut) = %v, want the 3 post-cut records", tail)
	}
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	for _, idx := range segs {
		if idx < cut {
			t.Fatalf("segment %d survived TruncateBefore(%d)", idx, cut)
		}
	}
	var all []string
	if err := l.ReplayFrom(0, func(p []byte) error { all = append(all, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("after truncation full replay = %v", all)
	}
}

// --- Snapshots ---

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	for seq := 1; seq <= 4; seq++ {
		payload := bytes.Repeat([]byte{byte(seq)}, 100*seq)
		if err := WriteSnapshot(dir, seq, payload, true); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := ListSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 || seqs[3] != 4 {
		t.Fatalf("ListSnapshots = %v", seqs)
	}
	got, err := ReadSnapshot(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{3}, 300)) {
		t.Fatal("snapshot 3 payload mismatch")
	}
	if err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	seqs, _ = ListSnapshots(dir)
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("after prune ListSnapshots = %v, want [3 4]", seqs)
	}
	if _, err := ReadSnapshot(dir, 1); err == nil {
		t.Fatal("pruned snapshot still readable")
	}
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 7, []byte("precious state"), true); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName(7))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	if _, err := ReadSnapshot(dir, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot read = %v, want ErrCorrupt", err)
	}
	// Truncated file: also typed, never a panic.
	os.WriteFile(path, data[:3], 0o644)
	if _, err := ReadSnapshot(dir, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot read = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotNoTmpLeftBehind(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 1, []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("tmp file left behind: %s", e.Name())
		}
	}
}
