package record

import (
	"bytes"
	"slices"

	"mdcc/internal/transport"
)

// Binary encodings of Value and Update, built from transport's wire
// primitives. These are the only encoders of the two types: protocol
// messages (internal/core, internal/gateway) and disk records
// (internal/kv's WAL, internal/core's oplog and snapshots) all call
// them, so the layout is frozen per transport.WireVersion and per
// disk format byte alike. Bounded-cardinality strings (record keys,
// attribute names) decode through transport's intern table.
//
// A Value is encoded once, by Encode when an update is built, and
// travels as those bytes (Encoded): the message and disk codecs copy
// them in (AppendEncoded) and out (ReadEncoded) and build no map.

// appendInt64Map encodes a string→int64 map sorted by key so equal
// maps produce identical bytes (golden vectors and cross-replica
// frame diffing depend on it). The name scratch stays on the stack
// for the typical handful of attributes, keeping the encode path
// allocation-free.
func appendInt64Map(b []byte, m map[string]int64) []byte {
	b = transport.AppendUvarint(b, uint64(len(m)))
	if len(m) == 0 {
		return b
	}
	var arr [16]string
	names := arr[:0]
	if len(m) > len(arr) {
		names = make([]string, 0, len(m))
	}
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		b = transport.AppendString(b, k)
		b = transport.AppendVarint(b, m[k])
	}
	return b
}

// readInt64Map decodes appendInt64Map's output (nil for empty).
func readInt64Map(r *transport.WireReader) map[string]int64 {
	n := r.Count("attribute")
	if n == 0 {
		return nil
	}
	m := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.InternString()
		m[k] = r.Varint()
	}
	return m
}

// AppendValue encodes v: its attributes in name order, its blob, its
// tombstone bit. The order makes the encoding canonical — equal values
// encode to equal bytes — which is what lets Encoded stand for a value.
func AppendValue(b []byte, v Value) []byte {
	b = appendInt64Map(b, v.Attrs)
	b = transport.AppendBytes(b, v.Blob)
	return transport.AppendBool(b, v.Tombstone)
}

// Encoded is a value as the system holds it: AppendValue's canonical
// bytes, built once by Encode and shared from there on by every layer
// that carries the value (update, wire, decided log, store, read tier).
// Shared bytes are immutable: no holder writes into an Encoded, so a
// holder that wants to rewrite copies first. nil is the empty value,
// and equal values are equal bytes (bytes.Equal).
type Encoded []byte

// emptyValue is Value{}'s encoding, which nil stands for.
var emptyValue = AppendValue(nil, Value{})

// Encode returns v's encoding at its exact size (nil for the empty
// value). It keeps nothing of v.
func Encode(v Value) Encoded {
	if len(v.Attrs) == 0 && len(v.Blob) == 0 && !v.Tombstone {
		return nil
	}
	n := uvarintLen(uint64(len(v.Attrs))) + uvarintLen(uint64(len(v.Blob))) + len(v.Blob) + 1
	for k, x := range v.Attrs {
		n += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(x<<1^(x>>63)))
	}
	return AppendValue(make([]byte, 0, n), v)
}

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Decode returns the value as a Value of the caller's own: the one way
// from the bytes back to an attribute map, taken at the API edge (a
// client's read) and where a commutative update adds its deltas.
func (e Encoded) Decode() Value {
	var v Value
	if len(e) == 0 {
		return v
	}
	r := transport.NewWireReader(e)
	v.Attrs = readInt64Map(r)
	v.Blob = r.Bytes()
	v.Tombstone = r.Bool()
	return v
}

// Tombstone reports whether e is a deleted record's value, without
// decoding: the tombstone bit is the encoding's last byte.
func (e Encoded) Tombstone() bool {
	return len(e) > 0 && e[len(e)-1] != 0
}

// Attr returns the named attribute and whether it is present, without
// decoding: constraint checks and escrow snapshots read one attribute.
func (e Encoded) Attr(name string) (int64, bool) {
	if len(e) == 0 {
		return 0, false
	}
	r := transport.NewWireReader(e)
	for n := r.Count("attribute"); n > 0; n-- {
		k := r.Region("attribute name")
		if x := r.Varint(); string(k) == name && r.Err() == nil {
			return x, true
		}
	}
	return 0, false
}

// AppendEncoded appends e; the output is AppendValue's for the value
// e encodes.
func AppendEncoded(b []byte, e Encoded) []byte {
	if len(e) == 0 {
		return append(b, emptyValue...)
	}
	return append(b, e...)
}

// ReadEncoded reads one AppendValue encoding as a copy of its bytes,
// exact-size (nil for the empty value): the decoder walks the layout
// to find its end and builds no map.
func ReadEncoded(r *transport.WireReader) Encoded {
	start := r.Mark()
	for n := r.Count("attribute"); n > 0; n-- {
		r.Region("attribute name")
		r.Varint()
	}
	r.Region("blob")
	r.Byte()
	if r.Err() != nil {
		return nil
	}
	span := r.Since(start)
	if string(span) == string(emptyValue) {
		return nil
	}
	return Encoded(bytes.Clone(span))
}

// AppendUpdate encodes u: kind, key, then the fields that kind uses.
func AppendUpdate(b []byte, u Update) []byte {
	b = append(b, uint8(u.Kind))
	b = transport.AppendString(b, string(u.Key))
	switch u.Kind {
	case KindPhysical:
		b = transport.AppendUvarint(b, uint64(u.ReadVersion))
		b = AppendEncoded(b, u.NewValue)
	case KindCommutative:
		b = appendInt64Map(b, u.Deltas)
		b = transport.AppendUvarint(b, uint64(u.Merged))
	case KindReadCheck:
		b = transport.AppendUvarint(b, uint64(u.ReadVersion))
	}
	return b
}

// ReadUpdate decodes one Update.
func ReadUpdate(r *transport.WireReader) Update {
	var u Update
	u.Kind = UpdateKind(r.Byte())
	u.Key = Key(r.InternString())
	switch u.Kind {
	case KindPhysical:
		u.ReadVersion = Version(r.Uvarint())
		u.NewValue = ReadEncoded(r)
	case KindCommutative:
		u.Deltas = readInt64Map(r)
		u.Merged = int(r.Uvarint())
	case KindReadCheck:
		u.ReadVersion = Version(r.Uvarint())
	}
	return u
}
