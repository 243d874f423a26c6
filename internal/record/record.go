// Package record defines the data model shared by every protocol in
// the repository: versioned record values, physical and commutative
// updates (the paper's vread→vwrite updates and delta updates), and
// attribute value constraints enforced by quorum demarcation.
//
// Inside the system a value is its bytes (Encoded): a physical update
// encodes its value once, when it is built, and the wire, the decided
// log, the store and the gateway's read tier carry those same bytes.
// A Value — an attribute map — exists only at the API edge: what a
// client builds before Physical, Insert or Delete, and what a read
// decodes for it (Encoded.Decode).
package record

import (
	"fmt"
	"sort"
	"strings"
)

// Key identifies a record (the paper's primary key). Tables are
// encoded as key prefixes, e.g. "item/0000042".
type Key string

// Version is the per-record Paxos instance number: version v is the
// state after v learned-and-executed options, so a fresh record is at
// version 0 and the first committed update produces version 1.
type Version uint64

// Value is a record's contents: named integer attributes (which
// commutative deltas may target) plus an opaque payload for everything
// else. A nil/zero Value with Tombstone unset represents "not present".
type Value struct {
	// Attrs holds numeric attributes, e.g. {"stock": 17}.
	Attrs map[string]int64
	// Blob is the uninterpreted remainder of the row.
	Blob []byte
	// Tombstone marks a deleted record (deletes are handled as
	// normal updates that mark the item deleted, per §3.2.1).
	Tombstone bool
}

// Clone returns a deep copy of v.
func (v Value) Clone() Value {
	out := Value{Tombstone: v.Tombstone}
	if v.Attrs != nil {
		out.Attrs = make(map[string]int64, len(v.Attrs))
		for k, a := range v.Attrs {
			out.Attrs[k] = a
		}
	}
	if v.Blob != nil {
		out.Blob = append([]byte(nil), v.Blob...)
	}
	return out
}

// Attr returns the named numeric attribute (0 if absent).
func (v Value) Attr(name string) int64 {
	return v.Attrs[name]
}

// WithAttr returns a copy of v with the named attribute set.
func (v Value) WithAttr(name string, x int64) Value {
	out := v.Clone()
	if out.Attrs == nil {
		out.Attrs = make(map[string]int64, 1)
	}
	out.Attrs[name] = x
	return out
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Tombstone != o.Tombstone {
		return false
	}
	if len(v.Attrs) != len(o.Attrs) {
		return false
	}
	for k, a := range v.Attrs {
		if b, ok := o.Attrs[k]; !ok || a != b {
			return false
		}
	}
	if len(v.Blob) != len(o.Blob) {
		return false
	}
	for i := range v.Blob {
		if v.Blob[i] != o.Blob[i] {
			return false
		}
	}
	return true
}

// String renders a short debug form.
func (v Value) String() string {
	if v.Tombstone {
		return "<tombstone>"
	}
	names := make([]string, 0, len(v.Attrs))
	for k := range v.Attrs {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, v.Attrs[k])
	}
	if len(v.Blob) > 0 {
		fmt.Fprintf(&b, " blob(%dB)", len(v.Blob))
	}
	b.WriteByte('}')
	return b.String()
}

// UpdateKind discriminates Update variants.
type UpdateKind uint8

// Update kinds.
const (
	// KindPhysical is a whole-value write validated against the read
	// version (vread → vwrite in the paper). Inserts are physical
	// updates with ReadVersion 0 on a non-existent record; deletes
	// write a tombstone value.
	KindPhysical UpdateKind = iota + 1
	// KindCommutative applies attribute deltas, subject to declared
	// constraints, and commutes with other commutative updates.
	KindCommutative
	// KindReadCheck validates that a record still has the version the
	// transaction read, without writing anything — the read-set
	// validation extension of §4.4 that upgrades the isolation level
	// towards serializability. Read checks commute with each other
	// and execute as no-ops.
	KindReadCheck
)

// Update is one write of a transaction's write-set.
type Update struct {
	Kind UpdateKind
	Key  Key

	// Physical fields.
	ReadVersion Version // version the transaction read (0 = expects absent/fresh)
	NewValue    Encoded // encoded once by Physical, Insert or Delete

	// Commutative fields: attribute → signed delta.
	Deltas map[string]int64

	// Merged is the number of client delta updates a gateway coalesced
	// into this one commutative update (0 and 1 both mean "a single
	// client update"). A committed merged update advances the record
	// version by Span, so per-client-update version accounting — and
	// the invariant "version v = state after v executed client updates"
	// — stays exact across coalescing.
	Merged int
}

// Physical builds a physical update. It keeps newValue's encoding, not
// newValue: the caller may change its Value once Physical returns.
func Physical(key Key, readVersion Version, newValue Value) Update {
	return Update{Kind: KindPhysical, Key: key, ReadVersion: readVersion, NewValue: Encode(newValue)}
}

// Insert builds a physical update that requires the record to be
// absent (missing vread per §3.2.1).
func Insert(key Key, value Value) Update {
	return Physical(key, 0, value)
}

// Delete builds a physical update writing a tombstone.
func Delete(key Key, readVersion Version) Update {
	return Physical(key, readVersion, Value{Tombstone: true})
}

// Commutative builds a delta update, e.g. Commutative("item/7",
// map[string]int64{"stock": -2}).
func Commutative(key Key, deltas map[string]int64) Update {
	cp := make(map[string]int64, len(deltas))
	for k, d := range deltas {
		cp[k] = d
	}
	return Update{Kind: KindCommutative, Key: key, Deltas: cp}
}

// MergedCommutative builds a delta update representing merged client
// updates whose deltas sum to deltas: a gateway coalesces a hot-key
// stampede into one Paxos option per window this way. The version
// advances by merged on commit (see Span).
func MergedCommutative(key Key, deltas map[string]int64, merged int) Update {
	up := Commutative(key, deltas)
	up.Merged = merged
	return up
}

// Span is how many versions a committed update advances its record:
// 1, except for merged commutative updates which advance by the
// number of client updates they carry.
func (u Update) Span() Version {
	if u.Kind == KindCommutative && u.Merged > 1 {
		return Version(u.Merged)
	}
	return 1
}

// ReadCheck builds a read-set validation: the transaction commits
// only if key is still at readVersion.
func ReadCheck(key Key, readVersion Version) Update {
	return Update{Kind: KindReadCheck, Key: key, ReadVersion: readVersion}
}

// String renders a short debug form.
func (u Update) String() string {
	switch u.Kind {
	case KindPhysical:
		return fmt.Sprintf("phys(%s v%d->%s)", u.Key, u.ReadVersion, u.NewValue.Decode())
	case KindCommutative:
		names := make([]string, 0, len(u.Deltas))
		for k := range u.Deltas {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		fmt.Fprintf(&b, "comm(%s", u.Key)
		if u.Merged > 1 {
			fmt.Fprintf(&b, " x%d", u.Merged)
		}
		for _, k := range names {
			fmt.Fprintf(&b, " %s%+d", k, u.Deltas[k])
		}
		b.WriteByte(')')
		return b.String()
	case KindReadCheck:
		return fmt.Sprintf("readcheck(%s v%d)", u.Key, u.ReadVersion)
	default:
		return fmt.Sprintf("update(kind=%d)", u.Kind)
	}
}

// Apply returns the value after applying u to cur. Physical updates
// replace the value with their own bytes; commutative updates add
// deltas (creating the attribute map if needed) to a decoded copy of
// cur and encode the sum. cur is never written.
func (u Update) Apply(cur Encoded) Encoded {
	switch u.Kind {
	case KindPhysical:
		return u.NewValue
	case KindCommutative:
		out := cur.Decode()
		if out.Attrs == nil {
			out.Attrs = make(map[string]int64, len(u.Deltas))
		}
		for k, d := range u.Deltas {
			out.Attrs[k] += d
		}
		return Encode(out)
	case KindReadCheck:
		return cur // validation only, never a write
	default:
		return cur
	}
}

// Constraint bounds a numeric attribute of every record in a table
// (e.g. stock >= 0). Nil bounds are unbounded.
type Constraint struct {
	Attr string
	Min  *int64
	Max  *int64
}

// MinBound is a helper to build "attr >= min" constraints.
func MinBound(attr string, min int64) Constraint {
	m := min
	return Constraint{Attr: attr, Min: &m}
}

// MaxBound is a helper to build "attr <= max" constraints.
func MaxBound(attr string, max int64) Constraint {
	m := max
	return Constraint{Attr: attr, Max: &m}
}

// Bound is a helper to build "min <= attr <= max" constraints.
func Bound(attr string, min, max int64) Constraint {
	lo, hi := min, max
	return Constraint{Attr: attr, Min: &lo, Max: &hi}
}

// Satisfied reports whether value x of the constrained attribute is
// within bounds.
func (c Constraint) Satisfied(x int64) bool {
	if c.Min != nil && x < *c.Min {
		return false
	}
	if c.Max != nil && x > *c.Max {
		return false
	}
	return true
}

// String renders the constraint.
func (c Constraint) String() string {
	switch {
	case c.Min != nil && c.Max != nil:
		return fmt.Sprintf("%d<=%s<=%d", *c.Min, c.Attr, *c.Max)
	case c.Min != nil:
		return fmt.Sprintf("%s>=%d", c.Attr, *c.Min)
	case c.Max != nil:
		return fmt.Sprintf("%s<=%d", c.Attr, *c.Max)
	default:
		return c.Attr + " unconstrained"
	}
}
