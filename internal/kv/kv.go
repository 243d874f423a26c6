// Package kv is the node-local versioned record store each storage
// node runs (the role BDB JE plays in the paper's prototype). It maps
// record keys to (value, version) pairs in an ordered B-tree, with an
// optional write-ahead log so a restarted node recovers its committed
// state. Protocol state (pending options, ballots) lives above this
// layer in internal/core; only *committed* data enters the store.
//
// A value rests in the tree as the bytes the log and the snapshots
// already write for it (record.AppendValue), not as a record.Value: a
// replica pays for every key it holds for as long as it runs, and the
// bytes cost a third of the attribute map they decode to (116 B
// against 372 B per one-attribute key, TestResidentBytesPerStoredValue).
// Put encodes, Get and Scan decode; nothing is shared with a caller in
// either direction.
package kv

import (
	"fmt"
	"sync"

	"mdcc/internal/btree"
	"mdcc/internal/record"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// Entry is a committed record state.
type Entry struct {
	Key     record.Key
	Value   record.Value
	Version record.Version
}

// entryFormat leads every WAL record this package writes (see
// wal.ErrFormat for why the value is one no gob stream starts with):
//
//	0xD1 | string Key | Value (record.AppendValue) | uvarint Version
const entryFormat = 0xD1

// AppendEntry encodes e with the wire primitives — the body of a WAL
// record here and of each kv row in internal/core's checkpoint
// snapshots. It is the layout's definition; the store writes both from
// the value bytes it already holds (appendRow), and the tests pin those
// rows to this function's.
func AppendEntry(b []byte, e Entry) []byte {
	b = transport.AppendString(b, string(e.Key))
	b = record.AppendValue(b, e.Value)
	return transport.AppendUvarint(b, uint64(e.Version))
}

// ReadEntry decodes one AppendEntry body.
func ReadEntry(r *transport.WireReader) Entry {
	return Entry{
		Key:     record.Key(r.String()),
		Value:   record.ReadValue(r),
		Version: record.Version(r.Uvarint()),
	}
}

// decodeRecord parses one WAL record payload. Anything but a
// well-formed entry in the current format is a wal.ErrFormat.
func decodeRecord(payload []byte) (Entry, error) {
	body, err := wal.Body(payload, entryFormat, "kv entry")
	if err != nil {
		return Entry{}, err
	}
	r := transport.NewWireReader(body)
	e := ReadEntry(r)
	if err := r.Err(); err != nil {
		return Entry{}, fmt.Errorf("%w: kv entry: %v", wal.ErrFormat, err)
	}
	return e, nil
}

// stored is a key's committed state at rest. Version and the tombstone
// bit sit beside the value's bytes so that Version, Exists and Scan's
// tombstone skip never decode.
type stored struct {
	value     []byte // record.AppendValue's encoding, never mutated
	version   record.Version
	tombstone bool
}

// decode returns the value as a fresh record.Value. The bytes are
// always rest's own output (replay and seeding re-encode what they
// read), so the reader cannot fail.
func (st stored) decode() record.Value {
	return record.ReadValue(transport.NewWireReader(st.value))
}

// appendRow is AppendEntry for a value already in its encoding.
func appendRow(b []byte, key string, st stored) []byte {
	b = transport.AppendString(b, key)
	b = append(b, st.value...)
	return transport.AppendUvarint(b, uint64(st.version))
}

// Store is a versioned key/value store. Safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	tree     *btree.Tree[stored]
	log      *wal.Log // nil for memory-only stores
	buf      []byte   // encode scratch, reused by every write
	puts     int64
	replayed int64
}

// NewMemory returns a store without durability (the simulator's
// storage nodes: durability there is modeled, not real).
func NewMemory() *Store {
	return &Store{tree: btree.New[stored]()}
}

// rest returns a value's state at rest: its encoding, built in the
// scratch buffer and copied out at its exact size.
func (s *Store) rest(v record.Value, version record.Version) stored {
	s.buf = record.AppendValue(s.buf[:0], v)
	return stored{value: append([]byte(nil), s.buf...), version: version, tombstone: v.Tombstone}
}

// Open returns a durable store backed by a WAL in dir, replaying any
// existing log into memory. Every record in it must be a kv entry.
func Open(dir string, noSync bool) (*Store, error) {
	return OpenWith(dir, wal.Options{NoSync: noSync}, nil, 0, nil)
}

// OpenWith returns a durable store backed by a WAL in dir with full
// control of the log options (group commit, fault injection). seed
// entries — recovered from a checkpoint snapshot — enter the tree
// without being re-logged, and replay starts at segment fromSeg (the
// snapshot's cut), so recovery is the bounded tail, not the whole log.
// Replaying a tail that overlaps the seed is sound: puts are
// last-write-wins in log order.
//
// The log may be shared with the layer above (internal/core writes its
// decision records into it with Append, so one log orders a settle's
// decision and its put): replay hands every record that does not open
// with the kv entry format byte to other, in log order. With other nil
// such a record is a wal.ErrFormat.
func OpenWith(dir string, opts wal.Options, seed []Entry, fromSeg int, other func(payload []byte) error) (*Store, error) {
	log, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{tree: btree.New[stored](), log: log}
	for _, e := range seed {
		s.tree.Put(string(e.Key), s.rest(e.Value, e.Version))
	}
	err = log.ReplayFrom(fromSeg, func(payload []byte) error {
		s.replayed++
		if other != nil && (len(payload) == 0 || payload[0] != entryFormat) {
			return other(payload)
		}
		e, derr := decodeRecord(payload)
		if derr != nil {
			return fmt.Errorf("kv: replay: %w", derr)
		}
		s.tree.Put(string(e.Key), s.rest(e.Value, e.Version))
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// Get returns the committed value and version for key. ok is false if
// the key has never been written. Tombstoned records are returned
// with ok=true (callers decide how to treat deletes); Exists reports
// presence net of tombstones. The value is decoded per call, so it is
// the caller's to keep or mutate: an attribute map and a blob allocated
// each time, which is why a Get costs one and a half in-memory Puts.
// (One of 8000 one-attribute keys, go1.24 amd64, two shared cores: Get
// 810 ns, 2 allocations, 256 B — 760 ns when it cloned a stored map;
// Put 520 ns, 1 allocation, 8 B — 780 ns, 2 allocations, 256 B when it
// cloned the caller's.) Callers that need only the version use Version.
func (s *Store) Get(key record.Key) (record.Value, record.Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tree.Get(string(key))
	if !ok {
		return record.Value{}, 0, false
	}
	return st.decode(), st.version, true
}

// Version returns key's committed version without copying its value
// (0, false if the key has never been written; tombstones count as
// written, as in Get).
func (s *Store) Version(key record.Key) (record.Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tree.Get(string(key))
	return st.version, ok
}

// Exists reports whether key holds a live (non-tombstoned) record.
func (s *Store) Exists(key record.Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tree.Get(string(key))
	return ok && !st.tombstone
}

// Put replaces the committed state of key. It keeps nothing of value:
// the store holds its own encoding of it, and the WAL record is built
// around those bytes, so a durable Put encodes the value once.
func (s *Store) Put(key record.Key, value record.Value, version record.Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.rest(value, version)
	if s.log != nil {
		s.buf = appendRow(append(s.buf[:0], entryFormat), string(key), st)
		if err := s.log.Append(s.buf); err != nil { // Append copies the record
			return err
		}
	}
	s.tree.Put(string(key), st)
	s.puts++
	return nil
}

// Append writes a record of the layer above into the store's log
// (see OpenWith). It opens with that layer's own format byte, never
// the kv entry's. A log that refused any earlier write refuses this
// one too, and the other way round: one log poisons once.
func (s *Store) Append(payload []byte) error {
	return s.log.Append(payload)
}

// Scan calls fn for every live entry with from <= key < to (to == ""
// means unbounded) in key order, stopping early if fn returns false.
func (s *Store) Scan(from, to record.Key, fn func(Entry) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tree.AscendRange(string(from), string(to), func(key string, st stored) bool {
		if st.tombstone {
			return true
		}
		return fn(Entry{Key: record.Key(key), Value: st.decode(), Version: st.version})
	})
}

// AppendEntries appends the store's whole state the way a checkpoint
// snapshot embeds it: a uvarint count, then every key's AppendEntry
// bytes in key order — tombstones included, a checkpoint must preserve
// them. The rows are written from the stored form; no value is decoded.
func (s *Store) AppendEntries(b []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b = transport.AppendUvarint(b, uint64(s.tree.Len()))
	s.tree.AscendRange("", "", func(key string, st stored) bool {
		b = appendRow(b, key, st)
		return true
	})
	return b
}

// Log exposes the backing WAL (nil for memory stores) for checkpoint
// cuts, truncation, and durability stats.
func (s *Store) Log() *wal.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.log
}

// Replayed returns how many WAL records were replayed at open, the
// other layer's included — the recovery tail length when opened from a
// snapshot.
func (s *Store) Replayed() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replayed
}

// Len returns the number of keys ever written (including tombstones).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Len()
}

// Puts returns the number of Put calls served (monitoring).
func (s *Store) Puts() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.puts
}

// Close releases the WAL, if any.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
