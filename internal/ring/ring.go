// Package ring is the keyspace sharding subsystem: a versioned shard
// map over a consistent-hash ring. Each replica group (one storage
// node per data center, the Paxos acceptor set for its shard of the
// keyspace) projects VPoints virtual points onto a 32-bit hash circle;
// a key is owned by the group owning the first point at or clockwise
// of the key's hash. Placement is a pure function of the map — every
// node that holds the same epoch computes the same owner for every key
// — and group membership changes move only the ~1/G slice of keys
// whose nearest point changed, never reshuffling the rest (the
// consistent-hashing property that makes live rebalancing affordable).
//
// Maps are plain data (exported fields, no pointers) with a monotone
// Epoch, so a ring change is published by value: stage the next map,
// drain and bootstrap the moving shards (internal/scenario's rebalance.go
// runs that sequence), then install it. Stale
// participants are fenced by epoch — a request routed under an old
// epoch is refused with ErrWrongShard carrying the current one.
package ring

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Epoch versions a shard map. Epochs are strictly monotone per
// cluster; a larger epoch always supersedes a smaller one.
type Epoch uint64

// DefaultVPoints is the virtual-point count per replica group. 64
// points keep the expected placement imbalance between groups within a
// few percent for the group counts a deployment runs (single digits)
// while the compiled ring stays a few hundred entries.
const DefaultVPoints = 64

// Map is a versioned shard map: the active replica groups and the
// virtual-point density they project onto the hash circle. It is pure
// data — copyable by value, comparable by Epoch — and placement is fully
// determined by its contents (see Compile).
type Map struct {
	Epoch   Epoch
	VPoints int
	Groups  []int // active replica-group indices, sorted ascending
}

// New builds the first map (epoch 1) over the given groups.
func New(groups []int, vpoints int) Map {
	if vpoints <= 0 {
		vpoints = DefaultVPoints
	}
	gs := append([]int(nil), groups...)
	sort.Ints(gs)
	return Map{Epoch: 1, VPoints: vpoints, Groups: gs}
}

// Clone deep-copies the map.
func (m Map) Clone() Map {
	out := m
	out.Groups = append([]int(nil), m.Groups...)
	return out
}

// Has reports whether group g is active in the map.
func (m Map) Has(g int) bool {
	i := sort.SearchInts(m.Groups, g)
	return i < len(m.Groups) && m.Groups[i] == g
}

// WithGroup returns the next epoch's map with group g added (a no-op
// membership change still bumps the epoch: epochs version the
// publication, not the diff).
func (m Map) WithGroup(g int) Map {
	out := m.Clone()
	out.Epoch++
	if !out.Has(g) {
		out.Groups = append(out.Groups, g)
		sort.Ints(out.Groups)
	}
	return out
}

// WithoutGroup returns the next epoch's map with group g removed.
func (m Map) WithoutGroup(g int) Map {
	out := m.Clone()
	out.Epoch++
	if i := sort.SearchInts(out.Groups, g); i < len(out.Groups) && out.Groups[i] == g {
		out.Groups = append(out.Groups[:i], out.Groups[i+1:]...)
	}
	return out
}

// Ring is a compiled (immutable) map: the sorted virtual points and
// their owners, ready for O(log points) lookups. Compile is
// deterministic, so two nodes compiling the same Map agree on every
// owner.
type Ring struct {
	m      Map
	points []uint32 // sorted point hashes
	owners []int    // owning group per point
}

// Compile builds the lookup structure for a map.
func Compile(m Map) *Ring {
	m = m.Clone()
	if m.VPoints <= 0 {
		m.VPoints = DefaultVPoints
	}
	type pt struct {
		h uint32
		g int
	}
	pts := make([]pt, 0, len(m.Groups)*m.VPoints)
	for _, g := range m.Groups {
		for v := 0; v < m.VPoints; v++ {
			pts = append(pts, pt{h: hash32(fmt.Sprintf("g%d/v%d", g, v)), g: g})
		}
	}
	// Ties (two groups hashing a point identically) break toward the
	// lower group index — any rule works as long as it is deterministic.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].h != pts[j].h {
			return pts[i].h < pts[j].h
		}
		return pts[i].g < pts[j].g
	})
	r := &Ring{m: m, points: make([]uint32, len(pts)), owners: make([]int, len(pts))}
	for i, p := range pts {
		r.points[i] = p.h
		r.owners[i] = p.g
	}
	return r
}

// Owner returns the replica group owning key: the group of the first
// virtual point at or clockwise of the key's hash. An empty ring owns
// everything at group 0 (a degenerate map should never be installed;
// this keeps lookups total).
func (r *Ring) Owner(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := hash32(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0 // wrap: the circle's first point
	}
	return r.owners[i]
}

// Map returns a copy of the compiled map.
func (r *Ring) Map() Map { return r.m.Clone() }

// Epoch returns the compiled map's epoch.
func (r *Ring) Epoch() Epoch { return r.m.Epoch }

// Groups returns the active group indices.
func (r *Ring) Groups() []int { return append([]int(nil), r.m.Groups...) }

// Table is a cluster's live ring view: the current ring and the
// previous one (so re-homed keys can be enumerated after a publish).
// Reads load the pair through one atomic pointer, so every storage-node
// dispatch's ownership check takes no lock; Install is serialized by
// its one caller, the move's publish step.
type Table struct {
	rings atomic.Pointer[ringPair]
}

// ringPair is one published state of a Table; it is never modified.
type ringPair struct {
	cur, prev *Ring
}

// NewTable builds a table serving map m.
func NewTable(m Map) *Table {
	t := &Table{}
	t.rings.Store(&ringPair{cur: Compile(m)})
	return t
}

// Owner resolves a key's owning group under the current ring.
func (t *Table) Owner(key string) int { return t.rings.Load().cur.Owner(key) }

// Epoch returns the current (published) epoch.
func (t *Table) Epoch() Epoch { return t.rings.Load().cur.Epoch() }

// Current returns the published ring.
func (t *Table) Current() *Ring { return t.rings.Load().cur }

// Install publishes map m: the current ring becomes the previous one.
// A stale install (epoch not above the current) is ignored and
// reported false.
func (t *Table) Install(m Map) bool {
	r := Compile(m)
	old := t.rings.Load()
	if r.Epoch() <= old.cur.Epoch() {
		return false
	}
	t.rings.Store(&ringPair{cur: r, prev: old.cur})
	return true
}

// Moved reports whether key changed owners at the last publish — the
// re-home predicate consumers (gateway interest sets, read tiers) use
// to invalidate per-key routing state after an epoch change.
func (t *Table) Moved(key string) bool {
	p := t.rings.Load()
	if p.prev == nil {
		return false
	}
	return p.cur.Owner(key) != p.prev.Owner(key)
}

// ErrWrongShard is the epoch fence: a request routed under a stale (or
// frozen mid-move) ring epoch is refused with the epoch the caller
// must refresh to before retrying. The refusal is issued before the
// request enters the commit protocol, so a retry can never duplicate
// work.
type ErrWrongShard struct {
	Epoch Epoch // the current (or imminently publishing) epoch
}

func (e ErrWrongShard) Error() string {
	return fmt.Sprintf("ring: wrong shard for this key set; refresh to ring epoch %d and retry", e.Epoch)
}

// hash32 is an FNV-1a hash with a murmur3 fmix32 avalanche — FNV's low
// bits correlate for short structured keys and ring placement consumes
// the full 32-bit range, so the finalizer matters (same construction
// the pre-ring hash-mod sharding used).
func hash32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
