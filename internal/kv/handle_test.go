package kv

import (
	"bytes"
	"testing"
	"unsafe"

	"mdcc/internal/record"
)

// A hollow row — a handle bound to a key with no committed state — is
// seen by the handle calls alone: every other reader finds the key
// never written, the log takes no record for it, and a reopened store
// binds no handle at all. A put on a hollow row commits the key and
// keeps its handle.
func TestHollowRowIsInvisible(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	a := record.Encode(record.Value{Attrs: map[string]int64{"x": 1}})
	c := record.Encode(record.Value{Blob: []byte("c")})
	s.PutEncoded("a", a, 1)
	s.PutEncoded("c", c, 4)
	s.Bind("b", 7) // hollow
	s.Bind("a", 3) // on a committed row
	if got := s.Log().Appends(); got != 2 {
		t.Fatalf("the log took %d records, want the 2 puts", got)
	}

	if _, _, ok := s.Get("b"); ok {
		t.Error("Get found the hollow row")
	}
	if v, ver, ok := s.GetEncoded("b"); ok || v != nil || ver != 0 {
		t.Errorf("GetEncoded on the hollow row = %x v%d %v", v, ver, ok)
	}
	if s.Exists("b") {
		t.Error("Exists reports the hollow row")
	}
	var scanned []record.Key
	s.Scan("", "", func(e Entry) bool { scanned = append(scanned, e.Key); return true })
	if len(scanned) != 2 || scanned[0] != "a" || scanned[1] != "c" {
		t.Errorf("Scan visited %v, want [a c]", scanned)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	plain := NewMemory()
	plain.PutEncoded("a", a, 1)
	plain.PutEncoded("c", c, 4)
	if got, want := s.AppendEntries(nil), plain.AppendEntries(nil); !bytes.Equal(got, want) {
		t.Errorf("AppendEntries with a hollow row\n got %x\nwant %x", got, want)
	}

	if v, ver, ok, h := s.Row("b"); ok || v != nil || ver != 0 || h != 7 {
		t.Errorf("Row(b) = %x v%d %v handle %d, want hollow with handle 7", v, ver, ok, h)
	}
	if v, ver, ok, h := s.Row("a"); !ok || !bytes.Equal(v, a) || ver != 1 || h != 3 {
		t.Errorf("Row(a) = %x v%d %v handle %d, want v1 with handle 3", v, ver, ok, h)
	}
	if _, _, ok, h := s.Row("c"); !ok || h != 0 {
		t.Errorf("Row(c) = %v handle %d, want committed with no handle", ok, h)
	}
	type bound struct {
		key record.Key
		h   uint32
	}
	var walk []bound
	s.AscendHandles(func(k record.Key, h uint32) bool { walk = append(walk, bound{k, h}); return true })
	if len(walk) != 2 || walk[0] != (bound{"a", 3}) || walk[1] != (bound{"b", 7}) {
		t.Errorf("AscendHandles visited %v, want [{a 3} {b 7}]", walk)
	}

	b := record.Encode(record.Value{Blob: []byte("b")})
	s.PutEncoded("b", b, 2)
	if v, ver, ok, h := s.Row("b"); !ok || !bytes.Equal(v, b) || ver != 2 || h != 7 {
		t.Errorf("Row(b) after its put = %x v%d %v handle %d, want v2 with handle 7", v, ver, ok, h)
	}
	if s.Len() != 3 {
		t.Errorf("Len after the put = %d, want 3", s.Len())
	}
	s.Close()

	s2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.AscendHandles(func(k record.Key, h uint32) bool {
		t.Errorf("the reopened store binds handle %d to %s", h, k)
		return true
	})
	if s2.Len() != 3 {
		t.Errorf("reopened Len = %d, want 3", s2.Len())
	}
}

// row mirrors the store tree's item: btree's item[V] is the key, then
// the value.
type row struct {
	key string
	val stored
}

// TestFullNodeFillsItsSizeClass pins degree's arithmetic: a node's
// items array grows by append, from empty (the first leaf) or from the
// upper half a split copies out, and either way a full node must fill
// the array append gave it, with no slot idle for good.
func TestFullNodeFillsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(row{}); got != 56 {
		t.Fatalf("a row is %d bytes, want 56", got)
	}
	full := 2*degree - 1
	var grown []row
	for len(grown) < full {
		grown = append(grown, row{})
	}
	split := append([]row(nil), make([]row, degree-1)...)
	for len(split) < full {
		split = append(split, row{})
	}
	for name, items := range map[string][]row{"from empty": grown, "from a split": split} {
		if cap(items) != full {
			t.Errorf("%s: a full node's %d items sit in an array of %d", name, full, cap(items))
		}
	}
}
