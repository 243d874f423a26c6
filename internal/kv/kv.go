// Package kv is the node-local versioned record store each storage
// node runs (the role BDB JE plays in the paper's prototype). It maps
// record keys to (value, version) pairs in an ordered B-tree, with an
// optional write-ahead log so a restarted node recovers its committed
// state. Protocol state (pending options, ballots) lives above this
// layer in internal/core; only *committed* data enters the store.
//
// A value rests in the tree as its record.Encoded bytes, the form the
// log and the snapshots write and the one the layers above carry: a
// replica pays for every key it holds for as long as it runs, and the
// bytes cost about a fifth of the attribute map they decode to (73 B,
// tree slot included, against 372 B per one-attribute key,
// TestResidentBytesPerStoredValue).
// PutEncoded stores the bytes it is given and GetEncoded and Scan hand
// the stored bytes out, so neither direction copies or decodes: an
// Encoded is immutable wherever it is shared. Put and Get are the two
// for a caller holding a record.Value: Put encodes, Get decodes.
//
// The tree is its node's one index of keys: a row may also carry a
// handle the layer above binds to the key (Row, Bind, AscendHandles).
// internal/core keeps each record's Paxos state in a slab of its own
// and binds the record's position there to the record's row, so a
// handler finds a record's committed value and its Paxos state in one
// descent. A record touched before any value committed gets a hollow
// row, a handle and nothing else, which every reader but the handle
// calls passes over; handles never reach the log.
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
	Value   record.Encoded
	Version record.Version
}

// entryFormat leads every WAL record this package writes (see
// wal.ErrFormat for why the value is one no gob stream starts with):
//
//	0xD1 | string Key | Value (record.AppendValue) | uvarint Version
const entryFormat = 0xD1

// AppendEntry encodes e with the wire primitives — the body of a WAL
// record here and of each kv row in internal/core's checkpoint
// snapshots.
func AppendEntry(b []byte, e Entry) []byte {
	b = transport.AppendString(b, string(e.Key))
	b = record.AppendEncoded(b, e.Value)
	return transport.AppendUvarint(b, uint64(e.Version))
}

// ReadEntry decodes one AppendEntry body; the value is a copy of its
// bytes, exact-size.
func ReadEntry(r *transport.WireReader) Entry {
	return Entry{
		Key:     record.Key(r.String()),
		Value:   record.ReadEncoded(r),
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

// stored is a key's row: its committed state at rest and the handle
// the layer above bound to the key. A hollow row holds a handle and no
// committed state: the key's record was touched above (a vote, a
// promise) before any value committed here. Only the handle calls see
// a hollow row; to every other reader its key has never been written.
type stored struct {
	value   record.Encoded // shared with the writer and every reader
	version record.Version
	handle  uint32 // 0: none bound
	hollow  bool
}

// degree is the store tree's minimum degree, fixed so that a full node
// fills its items array's size class. A row is a 56-byte item (the
// key's 16-byte string header, the value's 24-byte slice header, the
// 8-byte version, the handle and the hollow flag with their padding),
// and a node's array grows by append into size classes: at degree 37 a
// full node's 2*37-1 = 73 items take 4 088 of the 4 096 B class it
// lands in. At the tree's default degree, 32, a full node's 63 items
// (3 528 B) sit in that same class with room for 73, and 10 slots stay
// idle for good (TestFullNodeFillsItsSizeClass). One committed
// one-attribute value costs 82 B at degree 32 and 73 B here, ascending
// keys (TestResidentBytesPerStoredValue).
const degree = 37

// Store is a versioned key/value store. Safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	tree     *btree.Tree[stored]
	hollow   int      // rows in tree that are hollow
	log      *wal.Log // nil for memory-only stores
	buf      []byte   // encode scratch, reused by every write
	puts     int64
	replayed int64
}

// NewMemory returns a store without durability (the simulator's
// storage nodes: durability there is modeled, not real).
func NewMemory() *Store {
	return &Store{tree: btree.NewDegree[stored](degree)}
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
	s := &Store{tree: btree.NewDegree[stored](degree), log: log}
	for _, e := range seed {
		s.tree.Put(string(e.Key), stored{value: e.Value, version: e.Version})
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
		s.tree.Put(string(e.Key), stored{value: e.Value, version: e.Version})
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// GetEncoded returns the committed value and version for key. ok is
// false if the key has never been written. Tombstoned records are
// returned with ok=true (callers decide how to treat deletes); Exists
// reports presence net of tombstones. The value is the stored bytes,
// shared: a GetEncoded allocates nothing. What a lookup costs is the
// tree walk, and past the cache that is most of it: go1.24 amd64, two
// shared cores, one-attribute keys visited at the benchmark's stride,
// GetEncoded takes about 350 ns among 8000 keys and 1.1 µs among
// 100 000, and Get's decode adds 0.5–0.7 µs and two allocations (the
// ladder's kv.get_ns is Get among 100 000). A Put that replaces a key
// takes about 300 ns as PutEncoded and 450–650 ns as Put, whose encode
// is its one allocation; the ladder's kv.put_ns.mem inserts 100 000
// keys in order, which stays in cache.
func (s *Store) GetEncoded(key record.Key) (record.Encoded, record.Version, bool) {
	val, ver, ok, _ := s.Row(key)
	return val, ver, ok
}

// Get is GetEncoded with the value decoded, a Value of the caller's own.
func (s *Store) Get(key record.Key) (record.Value, record.Version, bool) {
	val, ver, ok := s.GetEncoded(key)
	return val.Decode(), ver, ok
}

// Exists reports whether key holds a live (non-tombstoned) record.
func (s *Store) Exists(key record.Key) bool {
	val, _, ok, _ := s.Row(key)
	return ok && !val.Tombstone()
}

// PutEncoded replaces the committed state of key with value's bytes,
// as given: the store keeps the slice itself, so it must be an
// exact-size Encoded nobody writes into (record.Encode's and
// record.ReadEncoded's are).
func (s *Store) PutEncoded(key record.Key, value record.Encoded, version record.Version) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		s.buf = AppendEntry(append(s.buf[:0], entryFormat), Entry{key, value, version})
		if err := s.log.Append(s.buf); err != nil { // Append copies the record
			return err
		}
	}
	st, _ := s.tree.Slot(string(key))
	if st.hollow {
		st.hollow = false
		s.hollow--
	}
	st.value, st.version = value, version // a bound handle stays
	s.puts++
	return nil
}

// Put is PutEncoded for a value not yet encoded; it keeps nothing of
// value.
func (s *Store) Put(key record.Key, value record.Value, version record.Version) error {
	return s.PutEncoded(key, record.Encode(value), version)
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
		if st.hollow || st.value.Tombstone() {
			return true
		}
		return fn(Entry{Key: record.Key(key), Value: st.value, Version: st.version})
	})
}

// AppendEntries appends the store's whole state the way a checkpoint
// snapshot embeds it: a uvarint count, then every key's AppendEntry
// bytes in key order — tombstones included, a checkpoint must preserve
// them.
func (s *Store) AppendEntries(b []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b = transport.AppendUvarint(b, uint64(s.tree.Len()-s.hollow))
	s.tree.AscendRange("", "", func(key string, st stored) bool {
		if !st.hollow {
			b = AppendEntry(b, Entry{record.Key(key), st.value, st.version})
		}
		return true
	})
	return b
}

// Row is GetEncoded plus the handle bound to key (0: none), in one
// descent: the layer above keeps a record's state beside its committed
// value, and a handler that reads both looks the key up once. A hollow
// row reads as a key never written, with its handle.
func (s *Store) Row(key record.Key) (record.Encoded, record.Version, bool, uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tree.Get(string(key))
	return st.value, st.version, ok && !st.hollow, st.handle
}

// Bind binds handle h (nonzero) to key, giving the key a hollow row if
// it has none. A handle is the layer above's to interpret; it never
// reaches the log, so a reopened store binds none, and the layer above
// binds again as it replays.
func (s *Store) Bind(key record.Key, h uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, inserted := s.tree.Slot(string(key))
	st.handle = h
	if inserted {
		st.hollow = true
		s.hollow++
	}
}

// AscendHandles calls fn for every key with a handle bound, hollow
// rows included, in key order, stopping early if fn returns false. It
// holds the store's read lock throughout, so fn must not call the
// store.
func (s *Store) AscendHandles(fn func(key record.Key, h uint32) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tree.AscendRange("", "", func(key string, st stored) bool {
		return st.handle == 0 || fn(record.Key(key), st.handle)
	})
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

// Len returns the number of keys ever written (including tombstones;
// not hollow rows).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tree.Len() - s.hollow
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
