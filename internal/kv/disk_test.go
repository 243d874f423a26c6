package kv

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mdcc/internal/record"
	"mdcc/internal/wal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden disk vectors")

func sampleEntry() Entry {
	return Entry{
		Key:     "cust#2",
		Value:   record.Encode(record.Value{Attrs: map[string]int64{"bal": -3, "qty": 41}, Blob: []byte{0xde, 0xad}}),
		Version: 11,
	}
}

// TestEntryRecordGolden pins the WAL record layout: a change must take
// a new format byte (so older directories are refused, not mis-read)
// and a deliberate -update.
func TestEntryRecordGolden(t *testing.T) {
	got := hex.EncodeToString(AppendEntry([]byte{entryFormat}, sampleEntry()))
	path := filepath.Join("testdata", "disk_golden", "entry.hex")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(bytes.TrimSpace(want)) {
		t.Errorf("kv WAL record encoding changed\n got %s\nwant %s", got, bytes.TrimSpace(want))
	}
	raw, _ := hex.DecodeString(got)
	back, err := decodeRecord(raw)
	if err != nil || back.Key != sampleEntry().Key || back.Version != 11 || !bytes.Equal(back.Value, sampleEntry().Value) {
		t.Errorf("golden record decodes to %+v, %v", back, err)
	}
}

// gobRecord is what the parent commit's Put appended for e.
func gobRecord(t *testing.T, e Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGobStoreRefused: a store directory written with gob — whole, or
// gob records behind current ones — is refused with wal.ErrFormat and
// no store comes back, so nothing of it is served.
func TestGobStoreRefused(t *testing.T) {
	for name, records := range map[string][][]byte{
		"gob only":        {gobRecord(t, sampleEntry())},
		"gob after valid": {AppendEntry([]byte{entryFormat}, sampleEntry()), gobRecord(t, sampleEntry())},
		"empty payload":   {{}},
		"truncated body":  {AppendEntry([]byte{entryFormat}, sampleEntry())[:5]},
	} {
		dir := t.TempDir()
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
		s, err := Open(dir, true)
		if !errors.Is(err, wal.ErrFormat) {
			t.Errorf("%s: Open error = %v, want wal.ErrFormat", name, err)
		}
		if s != nil {
			t.Errorf("%s: Open returned a store alongside the error", name)
			s.Close()
		}
	}
}

// FuzzRecordDecode throws raw bytes at the WAL record decoder: an
// error or an entry, never a panic or an allocation sized by a corrupt
// count.
func FuzzRecordDecode(f *testing.F) {
	f.Add(AppendEntry([]byte{entryFormat}, sampleEntry()))
	f.Add(AppendEntry([]byte{entryFormat}, Entry{Key: "gone#1", Value: record.Encode(record.Value{Tombstone: true}), Version: 5}))
	f.Add([]byte{entryFormat, 0x01, 'k', 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		if e, err := decodeRecord(b); err == nil {
			again, err := decodeRecord(AppendEntry([]byte{entryFormat}, e))
			if err != nil || again.Key != e.Key || again.Version != e.Version || !bytes.Equal(again.Value, e.Value) {
				t.Fatalf("decoded entry does not survive re-encoding: %+v -> %+v, %v", e, again, err)
			}
		}
	})
}
