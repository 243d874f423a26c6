// Hand-rolled binary codec: the one serialization format of the
// product. Every message that crosses TCP hand-serializes into a
// length-prefixed frame, and the disk records (internal/kv's WAL
// entries, internal/core's oplog entries and checkpoint snapshots)
// are built from the same primitives and sub-encoders.
//
// Frame layout (after the one-time connection preamble, see tcp.go):
//
//	u32 big-endian payload length | payload
//
// Payload = envelope:
//
//	string From | string To | uvarint TraceClk | u8 tag | body
//
// The tag names a message type registered with RegisterWire; body is
// that type's AppendWire output, decoded by its registered decoder.
// Tag 0 is never assigned, and a message type without a wire codec
// cannot be sent (ErrNoWireCodec).
//
// Primitive encodings: uvarint/varint are encoding/binary's; bools
// are one byte (0/1); strings and byte slices are uvarint length +
// raw bytes. Envelopes nest (transport.Batch carries inner
// envelopes), so the envelope encoder is itself a primitive.
//
// Versioning rule: the connection preamble carries a wire version
// byte. Tags, field order, and primitive encodings are frozen for a
// given version; any incompatible change bumps the version, and a
// reader that sees an unknown version drops the connection (peers
// within one deployment run the same build, so this is a guard
// against accidents, not a negotiation).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// WireVersion is the binary framing version byte in the connection
// preamble. Bump on any incompatible change to tags or encodings.
// Version 2 dropped the tag-0 fallback and MsgPhase2a's trailing
// decided-list count; version 3 writes a propose batch's shared write
// set once (internal/core's MsgProposeBatch).
const WireVersion = 3

// wireMagic opens every connection; a peer that starts with anything
// else is not speaking this protocol and is dropped.
var wireMagic = [4]byte{0xD7, 'M', 'D', 'C'}

// maxFrame bounds a single wire frame; larger frames indicate a
// corrupt or hostile stream and drop the connection.
const maxFrame = 1 << 26 // 64 MiB

// Wire tag space. Tag 0 is unassigned; transport owns 1..15,
// internal/core 16..47, internal/gateway 48..63.
const (
	TagHello = 1
	TagBatch = 2
)

// ErrNoWireCodec is the one encode error: the message's Go type (named
// in the wrapping error) has no registered wire codec, so no frame can
// carry it.
var ErrNoWireCodec = errors.New("transport: no wire codec")

// WireMessage is a message type that hand-serializes onto the binary
// wire. AppendWire appends the message body (no tag, no length) to b
// and returns the extended slice, in the exact form the decoder
// registered for WireTag consumes.
type WireMessage interface {
	Message
	WireTag() uint8
	AppendWire(b []byte) []byte
}

// WireDecoder decodes one message body previously produced by the
// matching AppendWire. Decoders must copy what they keep: the input
// reader's backing buffer is reused for the next frame.
type WireDecoder func(r *WireReader) (Message, error)

// The decoder table is filled by init functions and read without a
// lock: the first lookup (an encode's codec check or a decode) seals
// it, and a registration after that panics instead of racing the
// readers.
var (
	wireDecoders [64]WireDecoder
	wireSealed   atomic.Bool
)

// RegisterWire installs the decoder for a wire tag. Protocol packages
// call it from init, once per message type; it panics once the table
// has been read.
func RegisterWire(tag uint8, dec WireDecoder) {
	if tag == 0 || int(tag) >= len(wireDecoders) {
		panic(fmt.Sprintf("transport: wire tag %d out of range", tag))
	}
	if wireSealed.Load() {
		panic(fmt.Sprintf("transport: wire tag %d registered after the first encode or decode; register from init", tag))
	}
	if wireDecoders[tag] != nil {
		panic(fmt.Sprintf("transport: wire tag %d registered twice", tag))
	}
	wireDecoders[tag] = dec
}

func wireDecoder(tag uint8) WireDecoder {
	if !wireSealed.Load() { // a store on every lookup would contend across readers
		wireSealed.Store(true)
	}
	if int(tag) >= len(wireDecoders) {
		return nil
	}
	return wireDecoders[tag]
}

// ---- append-side primitives ----

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag signed varint form.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendBool appends one byte: 1 for true, 0 for false.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends a uvarint length followed by the raw bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a uvarint length followed by the raw bytes.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// ---- read-side primitives ----

// WireReader consumes a message body sequentially. The first
// malformed read latches an error; subsequent reads return zero
// values, so decoders check Err once at the end.
type WireReader struct {
	b   []byte
	off int
	err error
}

// NewWireReader reads from b (not copied; see WireDecoder on copying
// what outlives the call).
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

// fail latches the first error.
func (r *WireReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("transport: wire decode: truncated or corrupt %s at offset %d", what, r.off)
	}
}

// Err returns the latched decode error, if any.
func (r *WireReader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *WireReader) Len() int { return len(r.b) - r.off }

// Count reads an element count, latching corruption if it cannot fit
// in the remaining input (every element costs at least one byte) — so
// a corrupt length never drives a huge allocation, and the loop over
// the returned count simply does not run.
func (r *WireReader) Count(what string) int {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.fail(what + " count")
		return 0
	}
	return int(n)
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *WireReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// Byte reads one byte.
func (r *WireReader) Byte() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail("byte")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads one byte as a bool.
func (r *WireReader) Bool() bool { return r.Byte() != 0 }

// String reads a length-prefixed string (copied out of the buffer).
func (r *WireReader) String() string {
	p := r.take("string")
	return string(p)
}

// InternString reads a length-prefixed string through the bounded
// intern table: for hot low-cardinality wire strings (node ids, record
// keys, attribute and lane names) the steady-state decode path stops
// allocating one string copy per occurrence. Do NOT use it for
// unbounded-cardinality strings (transaction ids): they would only
// churn the table until it pins at capacity full of dead entries.
func (r *WireReader) InternString() string {
	return interned.intern(r.take("string"))
}

// internCap bounds the intern table: under a hostile or pathological
// stream it stops admitting new entries rather than growing without
// bound, and decoding stays correct either way (a full table just
// means misses allocate, as they did before interning).
const internCap = 8192

// interned is the process's one intern table, shared by every
// connection (a table per connection would hold each string once per
// peer).
var interned = newInternTable()

// internTable is an append-only, capped set of strings. Reads load an
// immutable snapshot map without a lock; a lookup keyed by string(p)
// compiles to a no-allocation map access. A miss takes mu: the copy it
// admits waits in fresh, where lookups under mu find it, until fresh
// holds a quarter as many strings as the snapshot (or the table is
// full), and then a new snapshot of both replaces the old one. Each
// admission thus costs amortised O(1) copies, and a warm table costs
// its readers one atomic load.
type internTable struct {
	snap  atomic.Pointer[map[string]string]
	mu    sync.Mutex
	fresh map[string]string // admitted since snap was built; under mu
}

func newInternTable() *internTable {
	t := &internTable{fresh: map[string]string{}}
	t.snap.Store(&map[string]string{})
	return t
}

func (t *internTable) intern(p []byte) string {
	if len(p) == 0 || len(p) > 128 {
		return string(p) // oversized strings are not worth pinning
	}
	snap := *t.snap.Load()
	if s, ok := snap[string(p)]; ok {
		return s
	}
	if len(snap) >= internCap {
		return string(p) // full, and nothing waits in fresh
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap = *t.snap.Load() // a rebuild may have landed since the first load
	if s, ok := snap[string(p)]; ok {
		return s
	}
	if s, ok := t.fresh[string(p)]; ok {
		return s
	}
	s := string(p)
	if len(snap)+len(t.fresh) >= internCap {
		return s
	}
	t.fresh[s] = s
	if n := len(snap) + len(t.fresh); len(t.fresh) >= len(snap)/4 || n == internCap {
		next := make(map[string]string, n)
		for k, v := range snap {
			next[k] = v
		}
		for k, v := range t.fresh {
			next[k] = v
		}
		t.snap.Store(&next)
		t.fresh = map[string]string{}
	}
	return s
}

// Bytes reads a length-prefixed byte slice, copied out of the buffer
// (nil for length 0, matching the common nil-slice encode side).
func (r *WireReader) Bytes() []byte {
	p := r.take("bytes")
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// Region reads a length-prefixed region in place: a caller keeping it
// past the decode copies it (see WireDecoder).
func (r *WireReader) Region(what string) []byte { return r.take(what) }

// Mark returns the read position, for Since.
func (r *WireReader) Mark() int { return r.off }

// Since returns the bytes consumed since mark, in place: a caller
// keeping them past the decode copies them (see WireDecoder).
func (r *WireReader) Since(mark int) []byte { return r.b[mark:r.off] }

// take consumes a length-prefixed region in place (no copy).
func (r *WireReader) take(what string) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.fail(what)
		return nil
	}
	p := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return p
}

// ---- envelope encode/decode ----

// wireEncoder returns msg's wire encoder, or ErrNoWireCodec if the type
// (or, for a Batch, the type of any item) has none: a frame is either
// wholly encodable or not sent.
func wireEncoder(msg Message) (WireMessage, error) {
	wm, ok := msg.(WireMessage)
	if !ok || wireDecoder(wm.WireTag()) == nil {
		return nil, fmt.Errorf("%w for %T", ErrNoWireCodec, msg)
	}
	if bt, ok := msg.(Batch); ok {
		for _, item := range bt.Items {
			if _, err := wireEncoder(item.Msg); err != nil {
				return nil, err
			}
		}
	}
	return wm, nil
}

// AppendEnvelope appends e in binary wire form: header, tag, body. On
// error (ErrNoWireCodec) b is returned unextended.
func AppendEnvelope(b []byte, e Envelope) ([]byte, error) {
	wm, err := wireEncoder(e.Msg)
	if err != nil {
		return b, err
	}
	return appendEnvelope(b, e, wm), nil
}

// appendEnvelope encodes an envelope whose message wireEncoder vetted.
func appendEnvelope(b []byte, e Envelope, wm WireMessage) []byte {
	b = AppendString(b, string(e.From))
	b = AppendString(b, string(e.To))
	b = AppendUvarint(b, e.TraceClk)
	b = append(b, wm.WireTag())
	return wm.AppendWire(b)
}

// DecodeEnvelope parses one envelope from r.
func DecodeEnvelope(r *WireReader) (Envelope, error) {
	var e Envelope
	e.From = NodeID(r.InternString())
	e.To = NodeID(r.InternString())
	e.TraceClk = r.Uvarint()
	tag := r.Byte()
	if err := r.Err(); err != nil {
		return e, err
	}
	dec := wireDecoder(tag)
	if dec == nil {
		return e, fmt.Errorf("transport: unknown wire tag %d", tag)
	}
	msg, err := dec(r)
	if err != nil {
		return e, err
	}
	if err := r.Err(); err != nil {
		return e, err
	}
	e.Msg = msg
	return e, nil
}

// wireReaderPool recycles WireReaders across frames. The TCP read
// loop decodes exactly one frame per reader, in place from its buffered
// reader, so the reader struct itself was the last per-frame
// allocation on the steady-state read path.
var wireReaderPool = sync.Pool{New: func() interface{} { return new(WireReader) }}

// DecodeFrame parses one framed envelope payload using a pooled
// reader — the TCP read path's per-frame entry point. The payload
// buffer may be reused by the caller as soon as DecodeFrame returns
// (decoders copy what they keep, and the pooled reader drops its
// reference before going back to the pool).
func DecodeFrame(payload []byte) (Envelope, error) {
	r := wireReaderPool.Get().(*WireReader)
	r.b, r.off, r.err = payload, 0, nil
	e, err := DecodeEnvelope(r)
	r.b = nil // don't pin the caller's buffer from the pool
	wireReaderPool.Put(r)
	return e, err
}

// ---- transport's own wire messages ----

// WireTag implements WireMessage.
func (h helloMsg) WireTag() uint8 { return TagHello }

// AppendWire implements WireMessage.
func (h helloMsg) AppendWire(b []byte) []byte {
	b = AppendString(b, string(h.ID))
	return AppendString(b, h.Addr)
}

// WireTag implements WireMessage.
func (bt Batch) WireTag() uint8 { return TagBatch }

// AppendWire implements WireMessage. Inner envelopes reuse the
// envelope encoding. AppendEnvelope vets every item before any byte
// is written (wireEncoder), so the count is always the number of items
// that follow; an item that slipped past it is a caller bug.
func (bt Batch) AppendWire(b []byte) []byte {
	b = AppendUvarint(b, uint64(len(bt.Items)))
	for _, item := range bt.Items {
		b = appendEnvelope(b, item, item.Msg.(WireMessage))
	}
	return b
}

func init() {
	RegisterWire(TagHello, func(r *WireReader) (Message, error) {
		var h helloMsg
		h.ID = NodeID(r.InternString())
		h.Addr = r.String()
		return h, r.Err()
	})
	RegisterWire(TagBatch, func(r *WireReader) (Message, error) {
		n := r.Count("batch item")
		if r.Err() != nil {
			return nil, r.Err()
		}
		items := make([]Envelope, 0, n)
		for i := 0; i < n; i++ {
			item, err := DecodeEnvelope(r)
			if err != nil {
				return nil, err
			}
			items = append(items, item)
		}
		return Batch{Items: items}, nil
	})
}
