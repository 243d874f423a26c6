// Package btree implements an in-memory B-tree keyed by string. It is
// the ordered-map substrate under internal/kv — the role Oracle BDB
// Java Edition plays in the paper's prototype — and carries exactly what
// the store does: insert, replace, point lookup and ordered range scans
// (the storage layer range-partitions tables by key). The store never
// removes a key (a delete is a tombstone value), so neither does the
// tree.
//
// The tree is not safe for concurrent use; internal/kv serializes
// access per storage node.
package btree

import "sort"

// degree is the minimum number of children of an internal node
// (except the root). A node holds between degree-1 and 2*degree-1 keys.
const defaultDegree = 32

// Tree is a B-tree mapping string keys to values of type V. A value is
// allocated once, when its key is inserted, and overwritten in place by
// every later Put: replacing allocates nothing, and the slack of a
// partly filled node is a pointer per slot, not a V.
type Tree[V any] struct {
	root   *node[V]
	size   int
	degree int
}

type item[V any] struct {
	key string
	val *V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
}

// box allocates a key's value. (Taking the address of Put's parameter
// instead would move it to the heap on every call, replaces included.)
func box[V any](val V) *V {
	p := new(V)
	*p = val
	return p
}

// New returns an empty tree with the default branching factor.
func New[V any]() *Tree[V] { return NewDegree[V](defaultDegree) }

// NewDegree returns an empty tree with minimum degree d (d >= 2).
func NewDegree[V any](d int) *Tree[V] {
	if d < 2 {
		panic("btree: degree must be >= 2")
	}
	return &Tree[V]{degree: d}
}

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int { return t.size }

// Get returns the value stored under key and whether it exists.
func (t *Tree[V]) Get(key string) (val V, ok bool) {
	n := t.root
	for n != nil {
		i, found := n.search(key)
		if found {
			return *n.items[i].val, true
		}
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	return val, false
}

// Put inserts or replaces the value under key. It reports whether the
// key was newly inserted (false means replaced).
func (t *Tree[V]) Put(key string, val V) bool {
	if t.root == nil {
		t.root = &node[V]{items: []item[V]{{key, box(val)}}}
		t.size = 1
		return true
	}
	if len(t.root.items) == t.maxItems() {
		// Split the root preemptively so insertion never revisits parents.
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.splitChild(t.root, 0)
	}
	inserted := t.insertNonFull(t.root, key, val)
	if inserted {
		t.size++
	}
	return inserted
}

// AscendRange calls fn for keys in [from, to) in ascending order until
// fn returns false. An empty `to` means no upper bound.
func (t *Tree[V]) AscendRange(from, to string, fn func(key string, val V) bool) {
	t.ascendRange(t.root, from, to, fn)
}

func (t *Tree[V]) maxItems() int { return 2*t.degree - 1 }

// search returns the index of key in n.items if present, else the
// child index to descend into.
func (n *node[V]) search(key string) (int, bool) {
	i := sort.Search(len(n.items), func(i int) bool { return n.items[i].key >= key })
	if i < len(n.items) && n.items[i].key == key {
		return i, true
	}
	return i, false
}

// splitChild splits the full child at index i of parent p.
func (t *Tree[V]) splitChild(p *node[V], i int) {
	child := p.children[i]
	mid := t.degree - 1
	median := child.items[mid]

	right := &node[V]{}
	right.items = append(right.items, child.items[mid+1:]...)
	child.items = child.items[:mid]
	if child.children != nil {
		right.children = append(right.children, child.children[t.degree:]...)
		child.children = child.children[:t.degree]
	}

	p.items = append(p.items, item[V]{})
	copy(p.items[i+1:], p.items[i:])
	p.items[i] = median

	p.children = append(p.children, nil)
	copy(p.children[i+2:], p.children[i+1:])
	p.children[i+1] = right
}

func (t *Tree[V]) insertNonFull(n *node[V], key string, val V) bool {
	for {
		i, found := n.search(key)
		if found {
			*n.items[i].val = val
			return false
		}
		if n.children == nil {
			n.items = append(n.items, item[V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[V]{key, box(val)}
			return true
		}
		if len(n.children[i].items) == t.maxItems() {
			t.splitChild(n, i)
			if key == n.items[i].key {
				*n.items[i].val = val
				return false
			}
			if key > n.items[i].key {
				i++
			}
		}
		n = n.children[i]
	}
}

func (t *Tree[V]) ascendRange(n *node[V], from, to string, fn func(string, V) bool) bool {
	if n == nil {
		return true
	}
	start, _ := n.search(from)
	for i := start; i < len(n.items); i++ {
		if n.children != nil && !t.ascendRange(n.children[i], from, to, fn) {
			return false
		}
		it := n.items[i]
		if to != "" && it.key >= to {
			return false
		}
		if !fn(it.key, *it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascendRange(n.children[len(n.children)-1], from, to, fn)
	}
	return true
}
