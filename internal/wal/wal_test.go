package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, dir
}

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.ReplayFrom(0, func(p []byte) error {
		cp := make([]byte, len(p))
		copy(cp, p)
		out = append(out, cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplay(t *testing.T) {
	l, _ := openTemp(t, Options{NoSync: true})
	defer l.Close()
	want := [][]byte{[]byte("one"), []byte("two"), []byte(""), []byte("four")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if l.Appends() != int64(len(want)) {
		t.Fatalf("Appends = %d, want %d", l.Appends(), len(want))
	}
}

func TestReopenPreservesRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 10 {
		t.Fatalf("after reopen replayed %d records, want 10", len(got))
	}
	// And appends continue to work.
	if err := l2.Append([]byte("rec-10")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != 11 {
		t.Fatalf("after reopen+append replayed %d records, want 11", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append(bytes.Repeat([]byte{'x'}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	l2, err := Open(dir, Options{SegmentSize: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 20 {
		t.Fatalf("replayed %d records across segments, want 20", len(got))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Simulate a crash mid-write: append garbage half-record bytes.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0x00, 0x12})
	f.Close()

	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != 5 {
		t.Fatalf("torn tail: replayed %d records, want 5", len(got))
	}
	// New appends after truncation must be replayable.
	if err := l2.Append([]byte("after-crash")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l2)
	if len(got) != 6 || string(got[5]) != "after-crash" {
		t.Fatalf("post-crash append lost: %q", got)
	}
}

func TestCorruptPayloadTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("good"))
	l.Append([]byte("will-be-corrupted"))
	l.Close()

	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segName(segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a bit in the last payload byte
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("corrupt tail: replayed %v, want just [good]", got)
	}
}

func TestClosedErrors(t *testing.T) {
	l, _ := openTemp(t, Options{NoSync: true})
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(recs [][]byte) bool {
		dir, err := os.MkdirTemp("", "walq")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		l, err := Open(dir, Options{SegmentSize: 256, NoSync: true})
		if err != nil {
			return false
		}
		for _, r := range recs {
			if err := l.Append(r); err != nil {
				return false
			}
		}
		l.Close()
		l2, err := Open(dir, Options{SegmentSize: 256, NoSync: true})
		if err != nil {
			return false
		}
		defer l2.Close()
		var got [][]byte
		if err := l2.ReplayFrom(0, func(p []byte) error {
			cp := make([]byte, len(p))
			copy(cp, p)
			got = append(got, cp)
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if !bytes.Equal(got[i], recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendNoSync(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'p'}, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMiddleSegmentCorruptionFailsReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 32, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(bytes.Repeat([]byte{'a'}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	// Corrupt a NON-final segment: replay must fail loudly (this is
	// not a torn tail; it is data loss).
	path := filepath.Join(dir, segName(segs[0]))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	l2, err := Open(dir, Options{SegmentSize: 32, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.ReplayFrom(0, func([]byte) error { return nil })
	if err == nil {
		t.Fatal("corrupt middle segment replayed silently")
	}
}

func TestReplayCallbackError(t *testing.T) {
	l, _ := openTemp(t, Options{NoSync: true})
	defer l.Close()
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	wantErr := fmt.Errorf("stop")
	n := 0
	err := l.ReplayFrom(0, func([]byte) error { n++; return wantErr })
	if err != wantErr || n != 1 {
		t.Fatalf("Replay error propagation: err=%v n=%d", err, n)
	}
}

func TestAppendsCounter(t *testing.T) {
	l, _ := openTemp(t, Options{NoSync: true})
	defer l.Close()
	for i := 0; i < 7; i++ {
		l.Append([]byte{byte(i)})
	}
	if l.Appends() != 7 {
		t.Fatalf("Appends = %d", l.Appends())
	}
}

func TestSyncedAppend(t *testing.T) {
	// Exercise the fsync path (NoSync=false).
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 1 || string(got[0]) != "durable" {
		t.Fatalf("synced append lost: %q", got)
	}
}
