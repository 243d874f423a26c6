package kv

import (
	"fmt"
	"testing"

	"mdcc/internal/record"
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

func TestGetReturnsCopy(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	v := record.Value{Attrs: map[string]int64{"x": 1}}
	s.Put("k", v, 1)
	got, _, _ := s.Get("k")
	got.Attrs["x"] = 99
	again, _, _ := s.Get("k")
	if again.Attr("x") != 1 {
		t.Fatal("Get leaked internal storage")
	}
	// The Put must also have copied.
	v.Attrs["x"] = 77
	again, _, _ = s.Get("k")
	if again.Attr("x") != 1 {
		t.Fatal("Put aliased caller's value")
	}
}

// Version answers what Get answers about the version — tombstones
// count as written — without copying the value.
func TestVersionMatchesGetWithoutCopy(t *testing.T) {
	s := NewMemory()
	defer s.Close()
	if ver, ok := s.Version("k"); ok || ver != 0 {
		t.Fatalf("Version on empty store = v%d %v", ver, ok)
	}
	s.Put("k", record.Value{Attrs: map[string]int64{"x": 1}, Blob: []byte("row")}, 7)
	s.Put("gone", record.Value{Tombstone: true}, 3)
	for _, k := range []record.Key{"k", "gone", "absent"} {
		_, want, wantOK := s.Get(k)
		if ver, ok := s.Version(k); ver != want || ok != wantOK {
			t.Fatalf("Version(%s) = v%d %v, Get says v%d %v", k, ver, ok, want, wantOK)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Version("k") }); n != 0 {
		t.Fatalf("Version allocates %v objects", n)
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
		}
		close(done)
	}()
	for i := 0; i < 1000; i++ {
		s.Get(record.Key(fmt.Sprintf("k%d", i%7)))
		s.Len()
	}
	<-done
}
