package kv

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mdcc/internal/record"
	"mdcc/internal/transport"
)

func TestMemoryBasics(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	if _, _, ok := s.Get("item/1"); ok {
		t.Fatal("Get on empty store found a key")
	}
	v := record.Value{Attrs: map[string]int64{"stock": 4}}
	if err := s.Put("item/1", v, 1); err != nil {
		t.Fatal(err)
	}
	got, ver, ok := s.Get("item/1")
	if !ok || ver != 1 || got.Attr("stock") != 4 {
		t.Fatalf("Get = %v v%d %v", got, ver, ok)
	}
	if !s.Exists("item/1") {
		t.Fatal("Exists = false for live record")
	}
	if s.Len() != 1 || s.Puts() != 1 {
		t.Fatalf("Len/Puts = %d/%d", s.Len(), s.Puts())
	}
}

// Put keeps nothing of the caller's Value, and a Get is the reader's
// own: editing one changes neither the store nor another reader's,
// though every GetEncoded and Scan hands out the one stored slice.
func TestStoredValueSharesNothingWithCallers(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	want := record.Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row")}
	v := record.Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row")}
	s.Put("k", v, 1)
	v.Attrs["x"] = 77
	v.Attrs["y"] = 5
	v.Blob[0] = 'P'
	a, _, _ := s.Get("k")
	if !a.Equal(want) {
		t.Fatalf("Put aliased caller's value: Get = %v", a)
	}
	a.Attrs["x"] = 99
	a.Blob[0] = 'G'
	if b, _, _ := s.Get("k"); !b.Equal(want) {
		t.Fatalf("two Gets alias each other: %v", b)
	}
	enc, _, _ := s.GetEncoded("k")
	again, _, _ := s.GetEncoded("k")
	var scanned record.Encoded
	s.Scan("", "", func(e Entry) bool { scanned = e.Value; return true })
	if &again[0] != &enc[0] || &scanned[0] != &enc[0] {
		t.Fatal("GetEncoded or Scan copied the stored bytes")
	}
}

// PutEncoded stores the bytes it is given: replacing a key's value
// allocates nothing, and GetEncoded hands back the very slice.
func TestPutEncodedAllocFree(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	vals := []record.Encoded{
		record.Encode(record.Value{Attrs: map[string]int64{"x": 1}}),
		record.Encode(record.Value{Attrs: map[string]int64{"x": 2}}),
	}
	s.PutEncoded("k", vals[1], 1)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		if err := s.PutEncoded("k", vals[i%2], record.Version(i)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a replacing PutEncoded allocates %v objects", n)
	}
	if got, _, _ := s.GetEncoded("k"); &got[0] != &vals[i%2][0] {
		t.Fatal("GetEncoded does not hand back the bytes PutEncoded stored")
	}
	if n := testing.AllocsPerRun(100, func() { s.GetEncoded("k") }); n != 0 {
		t.Fatalf("GetEncoded allocates %v objects", n)
	}
}

// Row answers what Get answers about the version — tombstones count
// as written — without copying the value.
func TestVersionMatchesGetWithoutCopy(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	if _, ver, ok, _ := s.Row("k"); ok || ver != 0 {
		t.Fatalf("Row on empty store = v%d %v", ver, ok)
	}
	s.Put("k", record.Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row")}, 7)
	s.Put("gone", record.Value{Tombstone: true}, 3)
	for _, k := range []record.Key{"k", "gone", "absent"} {
		_, want, wantOK := s.Get(k)
		if _, ver, ok, _ := s.Row(k); ver != want || ok != wantOK {
			t.Fatalf("Row(%s) = v%d %v, Get says v%d %v", k, ver, ok, want, wantOK)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Row("k") }); n != 0 {
		t.Fatalf("Row allocates %v objects", n)
	}
}

func TestTombstone(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	s.Put("k", record.Value{Attrs: map[string]int64{"x": 1}}, 1)
	s.Put("k", record.Value{Tombstone: true}, 2)
	if s.Exists("k") {
		t.Fatal("tombstoned record Exists")
	}
	_, ver, ok := s.Get("k")
	if !ok || ver != 2 {
		t.Fatalf("tombstone Get = v%d %v, want v2 true", ver, ok)
	}
	found := 0
	s.Scan("", "", func(Entry) bool { found++; return true })
	if found != 0 {
		t.Fatal("Scan returned a tombstoned record")
	}
	// Presence and version are held beside the value's bytes, so a
	// tombstone that still carries a row answers both without a decode.
	s.Put("gone", record.Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row"), Tombstone: true}, 3)
	if _, ver, ok := s.GetEncoded("gone"); s.Exists("gone") || !ok || ver != 3 {
		t.Fatalf("tombstone Exists = %v, GetEncoded = v%d %v; want false, v3 true", s.Exists("gone"), ver, ok)
	}
	if n := testing.AllocsPerRun(100, func() { s.Exists("gone"); s.GetEncoded("gone") }); n != 0 {
		t.Fatalf("Exists and GetEncoded of a tombstone allocate %v objects", n)
	}
}

func TestScanRangeOrder(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Put(record.Key(fmt.Sprintf("item/%03d", i)), record.Value{}, 1)
	}
	s.Put("other/1", record.Value{}, 1)
	var keys []record.Key
	s.Scan("item/", "item/z", func(e Entry) bool {
		keys = append(keys, e.Key)
		return true
	})
	if len(keys) != 20 {
		t.Fatalf("Scan returned %d keys, want 20", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatal("Scan out of order")
		}
	}
	// Early stop.
	n := 0
	s.Scan("", "", func(Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early-stop Scan visited %d", n)
	}
}

func TestDurableReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := record.Key(fmt.Sprintf("k%02d", i%10))
		if err := s.Put(k, record.Value{Attrs: map[string]int64{"v": int64(i)}}, record.Version(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	s2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("replayed Len = %d, want 10", s2.Len())
	}
	// Latest write wins per key: k5 last written at i=45.
	v, ver, ok := s2.Get("k05")
	if !ok || ver != 45 || v.Attr("v") != 45 {
		t.Fatalf("k05 = %v v%d %v, want v=45", v, ver, ok)
	}
}

func TestDurableVersionsSurviveTombstones(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", record.Value{Attrs: map[string]int64{"x": 1}}, 1)
	s.Put("k", record.Value{Tombstone: true}, 2)
	s.Close()
	s2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Exists("k") {
		t.Fatal("tombstone lost on replay")
	}
	_, ver, _ := s2.Get("k")
	if ver != 2 {
		t.Fatalf("version after replay = %d, want 2", ver)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			s.Put(record.Key(fmt.Sprintf("k%d", i%7)), record.Value{Attrs: map[string]int64{"i": int64(i)}}, record.Version(i))
			s.Bind(record.Key(fmt.Sprintf("h%d", i%11)), uint32(i+1))
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		s.Get(record.Key(fmt.Sprintf("k%d", i%7)))
		s.Row(record.Key(fmt.Sprintf("h%d", i%11)))
		s.AscendHandles(func(record.Key, uint32) bool { return true })
		s.Len()
	}
	<-done
}

// TestResidentBytesPerStoredValue is the store's retained-heap gate:
// what one committed one-attribute value still costs after two
// collections — key, tree slot, version and the value itself. Every
// replica pays it per key for as long as it runs. Measured go1.24,
// amd64: 73 B since the slot also carries the layer above's handle (a
// 56-byte row at degree 37; 82 B at the tree's default degree 32, where
// a full node leaves 10 slots of its size class idle), 66 B with a
// 48-byte slot, the value held in its tree node and nodes filled
// before they split, 100 B when each value had a box of its own and a
// node split at the median only (ascending keys left every node half
// full), 116 B when the tree kept the tombstone bit beside the
// record.Encoded bytes, 372 B when it held a record.Value (a map per
// stored value).
func TestResidentBytesPerStoredValue(t *testing.T) {
	const (
		keys        = 20_000
		maxPerValue = 79
	)
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	names := make([]record.Key, keys)
	for i := range names {
		names[i] = record.Key(fmt.Sprintf("item/%06d", i))
	}
	s := NewMemory()
	empty := live()
	for i, k := range names {
		if err := s.Put(k, record.Value{Attrs: map[string]int64{"stock": int64(i)}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	filled := live()
	// The key strings are the caller's (a node's keys arrive interned
	// off the wire and are shared with its record state), so they are
	// live on both sides of the difference.
	runtime.KeepAlive(names)
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	per := float64(filled-empty) / keys
	t.Logf("resident: %.0f B per stored value", per)
	if per > maxPerValue {
		t.Errorf("%.0f B retained per stored value, gate %d", per, maxPerValue)
	}
}

// An empty attribute map and no attribute map are one value: each is
// stored as the empty encoding (nil) and comes back Equal to what was
// put.
func TestEmptyValuesRoundTrip(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	for i, v := range []record.Value{{}, {Attrs: map[string]int64{}}, {Blob: []byte{}}} {
		k := record.Key(fmt.Sprintf("k%d", i))
		s.Put(k, v, 1)
		enc, _, _ := s.GetEncoded(k)
		got, ver, ok := s.Get(k)
		if !ok || ver != 1 || enc != nil || !got.Equal(v) {
			t.Errorf("Put(%#v) came back %#v (%x) v%d %v", v, got, enc, ver, ok)
		}
	}
}

// AppendEntries is what a checkpoint snapshot embeds: a count, then
// every key's AppendEntry bytes in key order, tombstones included.
func TestAppendEntriesMatchesAppendEntry(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	entries := []Entry{
		sampleEntry(),
		{Key: "gone#1", Value: record.Encode(record.Value{Tombstone: true}), Version: 5},
		{Key: "item#9", Value: record.Encode(record.Value{Blob: []byte("row")}), Version: 2},
	}
	want := transport.AppendUvarint([]byte("head"), uint64(len(entries)))
	for _, e := range entries {
		want = AppendEntry(want, e)
	}
	for i := len(entries) - 1; i >= 0; i-- { // put out of key order
		s.PutEncoded(entries[i].Key, entries[i].Value, entries[i].Version)
	}
	if got := s.AppendEntries([]byte("head")); !bytes.Equal(got, want) {
		t.Fatalf("AppendEntries\n got %x\nwant %x", got, want)
	}
}
