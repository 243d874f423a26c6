package record

import (
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

// AppendValue encodes v.
func AppendValue(b []byte, v Value) []byte {
	b = appendInt64Map(b, v.Attrs)
	b = transport.AppendBytes(b, v.Blob)
	return transport.AppendBool(b, v.Tombstone)
}

// ReadValue decodes one Value.
func ReadValue(r *transport.WireReader) Value {
	var v Value
	v.Attrs = readInt64Map(r)
	v.Blob = r.Bytes()
	v.Tombstone = r.Bool()
	return v
}

// AppendUpdate encodes u: kind, key, then the fields that kind uses.
func AppendUpdate(b []byte, u Update) []byte {
	b = append(b, uint8(u.Kind))
	b = transport.AppendString(b, string(u.Key))
	switch u.Kind {
	case KindPhysical:
		b = transport.AppendUvarint(b, uint64(u.ReadVersion))
		b = AppendValue(b, u.NewValue)
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
		u.NewValue = ReadValue(r)
	case KindCommutative:
		u.Deltas = readInt64Map(r)
		u.Merged = int(r.Uvarint())
	case KindReadCheck:
		u.ReadVersion = Version(r.Uvarint())
	}
	return u
}
