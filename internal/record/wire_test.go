package record

import (
	"bytes"
	"testing"
	"testing/quick"

	"mdcc/internal/transport"
)

// TestEncodeIsAppendValue: Encode's bytes are AppendValue's, at exact
// size, and nil stands for the empty value on both sides.
func TestEncodeIsAppendValue(t *testing.T) {
	for _, v := range []Value{
		{Attrs: map[string]int64{"x": 1}},
		{Attrs: map[string]int64{"b": -1 << 40, "a": 1 << 62, "c": 0}, Blob: []byte("row")},
		{Blob: bytes.Repeat([]byte{7}, 300)},
		{Tombstone: true},
		{Attrs: map[string]int64{}},
	} {
		e := Encode(v)
		want := AppendValue(nil, v)
		if len(v.Attrs) == 0 && len(v.Blob) == 0 && !v.Tombstone {
			if e != nil {
				t.Fatalf("%v: Encode = %x, want nil", v, e)
			}
		} else if !bytes.Equal(e, want) || cap(e) != len(e) {
			t.Fatalf("%v: Encode = %x (cap %d), want %x at exact size", v, e, cap(e), want)
		}
		if got := AppendEncoded(nil, e); !bytes.Equal(got, want) {
			t.Fatalf("%v: AppendEncoded = %x, want %x", v, got, want)
		}
		if got := e.Decode(); !got.Equal(v) {
			t.Fatalf("Decode = %v, want %v", got, v)
		}
		if e.Tombstone() != v.Tombstone {
			t.Fatalf("%v: Tombstone = %v", v, e.Tombstone())
		}
	}
}

// TestReadEncodedRoundTrip: ReadEncoded takes exactly one value's
// bytes off the reader, as an exact-size copy that does not alias it.
func TestReadEncodedRoundTrip(t *testing.T) {
	f := func(attrs map[string]int64, blob []byte, tomb bool) bool {
		v := Value{Attrs: attrs, Blob: blob, Tombstone: tomb}
		frame := append(AppendValue(nil, v), 0xEE)
		r := transport.NewWireReader(frame)
		e := ReadEncoded(r)
		if r.Err() != nil || r.Byte() != 0xEE || !bytes.Equal(e, Encode(v)) {
			return false
		}
		frame[0] ^= 0xFF // the reader's buffer is reused
		return e == nil || e[0] != frame[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < 8; cut++ {
		full := AppendValue(nil, Value{Attrs: map[string]int64{"stock": 5}, Blob: []byte("b")})
		r := transport.NewWireReader(full[:len(full)-cut])
		if e := ReadEncoded(r); r.Err() == nil || e != nil {
			t.Fatalf("cut %d: read %x, err %v", cut, e, r.Err())
		}
	}
}

func TestEncodedAttr(t *testing.T) {
	e := Encode(Value{Attrs: map[string]int64{"a": 3, "stock": -7, "stocks": 9}})
	for name, want := range map[string]int64{"a": 3, "stock": -7, "stocks": 9} {
		if x, ok := e.Attr(name); !ok || x != want {
			t.Fatalf("Attr(%q) = %d, %v; want %d", name, x, ok, want)
		}
	}
	for _, name := range []string{"", "b", "stoc", "tock"} {
		if x, ok := e.Attr(name); ok {
			t.Fatalf("Attr(%q) = %d, present", name, x)
		}
	}
	if _, ok := Encoded(nil).Attr("a"); ok {
		t.Fatal("empty value has an attribute")
	}
}

// TestEncodedReadsAllocFree: the accessors that read without decoding
// allocate nothing.
func TestEncodedReadsAllocFree(t *testing.T) {
	e := Encode(Value{Attrs: map[string]int64{"a": 3, "stock": -7}, Blob: []byte("row")})
	frame := AppendEncoded(nil, e)
	var sink int64
	if n := testing.AllocsPerRun(100, func() {
		x, _ := e.Attr("stock")
		sink += x
		if e.Tombstone() {
			sink++
		}
		frame = AppendEncoded(frame[:0], e)
	}); n != 0 {
		t.Fatalf("Attr, Tombstone and AppendEncoded allocate %v per run", n)
	}
	_ = sink
}
