// Package kv is the node-local versioned record store each storage
// node runs (the role BDB JE plays in the paper's prototype). It maps
// record keys to (value, version) pairs in an ordered B-tree, with an
// optional write-ahead log so a restarted node recovers its committed
// state. Protocol state (pending options, ballots) lives above this
// layer in internal/core; only *committed* data enters the store.
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
// snapshots.
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

// Store is a versioned key/value store. Safe for concurrent use.
type Store struct {
	mu       sync.RWMutex
	tree     *btree.Tree[Entry]
	log      *wal.Log // nil for memory-only stores
	puts     int64
	replayed int64
}

// NewMemory returns a store without durability (the simulator's
// storage nodes: durability there is modeled, not real).
func NewMemory() *Store {
	return &Store{tree: btree.New[Entry]()}
}

// Open returns a durable store backed by a WAL in dir, replaying any
// existing log into memory.
func Open(dir string, noSync bool) (*Store, error) {
	return OpenWith(dir, wal.Options{NoSync: noSync}, nil, 0)
}

// OpenWith returns a durable store backed by a WAL in dir with full
// control of the log options (group commit, fault injection). seed
// entries — recovered from a checkpoint snapshot — enter the tree
// without being re-logged, and replay starts at segment fromSeg (the
// snapshot's cut), so recovery is the bounded tail, not the whole log.
// Replaying a tail that overlaps the seed is sound: puts are
// last-write-wins in log order.
func OpenWith(dir string, opts wal.Options, seed []Entry, fromSeg int) (*Store, error) {
	log, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &Store{tree: btree.New[Entry](), log: log}
	for _, e := range seed {
		s.tree.Put(string(e.Key), Entry{Key: e.Key, Value: e.Value.Clone(), Version: e.Version})
	}
	err = log.ReplayFrom(fromSeg, func(payload []byte) error {
		e, derr := decodeRecord(payload)
		if derr != nil {
			return fmt.Errorf("kv: replay: %w", derr)
		}
		s.tree.Put(string(e.Key), e)
		s.replayed++
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
// presence net of tombstones. The value is a deep copy the caller may
// keep or mutate — an attribute map and a blob allocated per call,
// which is why a Get costs several times an in-memory Put; callers
// that need only the version use Version.
func (s *Store) Get(key record.Key) (record.Value, record.Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.tree.Get(string(key))
	if !ok {
		return record.Value{}, 0, false
	}
	return e.Value.Clone(), e.Version, true
}

// Version returns key's committed version without copying its value
// (0, false if the key has never been written; tombstones count as
// written, as in Get).
func (s *Store) Version(key record.Key) (record.Version, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.tree.Get(string(key))
	return e.Version, ok
}

// Exists reports whether key holds a live (non-tombstoned) record.
func (s *Store) Exists(key record.Key) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.tree.Get(string(key))
	return ok && !e.Value.Tombstone
}

// Put replaces the committed state of key.
func (s *Store) Put(key record.Key, value record.Value, version record.Version) error {
	e := Entry{Key: key, Value: value.Clone(), Version: version}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		if err := s.log.Append(AppendEntry([]byte{entryFormat}, e)); err != nil {
			return err
		}
	}
	s.tree.Put(string(key), e)
	s.puts++
	return nil
}

// Scan calls fn for every live entry with from <= key < to (to == ""
// means unbounded) in key order, stopping early if fn returns false.
func (s *Store) Scan(from, to record.Key, fn func(Entry) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.tree.AscendRange(string(from), string(to), func(_ string, e Entry) bool {
		if e.Value.Tombstone {
			return true
		}
		return fn(Entry{Key: e.Key, Value: e.Value.Clone(), Version: e.Version})
	})
}

// Entries returns every entry — tombstones included, a checkpoint must
// preserve them — in key order, with cloned values.
func (s *Store) Entries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, s.tree.Len())
	s.tree.AscendRange("", "", func(_ string, e Entry) bool {
		out = append(out, Entry{Key: e.Key, Value: e.Value.Clone(), Version: e.Version})
		return true
	})
	return out
}

// Log exposes the backing WAL (nil for memory stores) for checkpoint
// cuts, truncation, and durability stats.
func (s *Store) Log() *wal.Log {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.log
}

// Replayed returns how many WAL records were replayed at open — the
// recovery tail length when opened from a snapshot.
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
