// Package btree implements an in-memory B-tree keyed by string. It is
// the ordered-map substrate under internal/kv — the role Oracle BDB
// Java Edition plays in the paper's prototype — and carries exactly
// insert, replace (Put, or Slot to change a value where it lies),
// point lookup and ordered range scans (the storage layer range-partitions
// tables by key). The store's rows are also a storage node's index of
// the records it has touched: each row carries the handle of its
// record's Paxos state (see internal/kv). internal/core keeps two more
// per-key sets in it: each feed subscriber's interest set, and a
// coordinator's per-key lineage sequences. None of its users removes a
// single key: the store's delete is a tombstone value, a storage node
// never forgets a record, and the interest set and the sequences are
// dropped whole (a new feed epoch, a lane rotation). So the tree has no
// delete, and a key costs one item slot: about 31 B for a string key
// and a word-sized value, where a Go map of the same pair takes 44–55
// B.
//
// The tree is not safe for concurrent use; each user serializes access
// per node (internal/kv per storage node, internal/core in the node's
// handler context). A callback of AscendRange must not call Put, not
// even to replace a value: a Put may split or rotate nodes on its way
// down.
package btree

// degree is the minimum number of children of an internal node
// (except the root). A node holds between degree-1 and 2*degree-1 keys.
const defaultDegree = 32

// Tree is a B-tree mapping string keys to values of type V. A value
// sits in its node beside its key, so a key costs one item slot and
// nothing else, and a Put that replaces it assigns in place and
// allocates nothing. What a partly filled node wastes is whole slots,
// so an insert fills a full child's sibling before it splits the child
// (see rotate): nodes fill to about 80 % under random and interleaved
// inserts and to the brim under ascending ones.
type Tree[V any] struct {
	root   *node[V]
	size   int
	degree int
}

type item[V any] struct {
	key string
	val V
}

type node[V any] struct {
	items    []item[V]
	children []*node[V] // nil for leaves
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
	if p := lookup(t.root, key); p != nil {
		return *p, true
	}
	return val, false
}

// lookup returns a pointer to the value stored under key in the
// subtree at n, nil if the key is absent there.
func lookup[V any](n *node[V], key string) *V {
	for n != nil {
		i, found := n.search(key)
		if found {
			return &n.items[i].val
		}
		if n.children == nil {
			break
		}
		n = n.children[i]
	}
	return nil
}

// Put inserts or replaces the value under key. It reports whether the
// key was newly inserted (false means replaced).
func (t *Tree[V]) Put(key string, val V) bool {
	p, inserted := t.Slot(key)
	*p = val
	return inserted
}

// Slot returns a pointer to the value stored under key, inserting the
// zero value first if the key is absent, and reports whether it
// inserted, so a caller can change part of a value, or fill a new one
// field by field, where it lies. The pointer is good until the next Put
// or Slot, which may move items between nodes.
//
// A replace moves nothing: the descent makes room in every full node it
// passes, by a rotation or a split, only once a lookup under that node
// has not found the key. A replace that split full nodes for a key
// that needs no room would take a tree filled to the brim by ascending
// inserts back towards half full under its first round of replaces.
func (t *Tree[V]) Slot(key string) (*V, bool) {
	if t.root == nil {
		t.root = &node[V]{items: []item[V]{{key: key}}}
		t.size = 1
		return &t.root.items[0].val, true
	}
	if len(t.root.items) == t.maxItems() {
		if p := lookup(t.root, key); p != nil {
			return p, false
		}
		// Split the root preemptively so insertion never revisits parents.
		old := t.root
		t.root = &node[V]{children: []*node[V]{old}}
		t.splitChild(t.root, 0)
	}
	return t.insertNonFull(t.root, key)
}

// AscendRange calls fn for keys in [from, to) in ascending order until
// fn returns false. An empty `to` means no upper bound.
func (t *Tree[V]) AscendRange(from, to string, fn func(key string, val V) bool) {
	t.ascendRange(t.root, from, to, fn)
}

func (t *Tree[V]) maxItems() int { return 2*t.degree - 1 }

// search returns the index of key in n.items if present, else the
// child index to descend into. It is sort.Search written out, so a
// probe compares in place instead of calling a closure.
func (n *node[V]) search(key string) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if n.items[h].key < key {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(n.items) && n.items[lo].key == key
}

// splitChild splits the full child at index i of parent p.
func (t *Tree[V]) splitChild(p *node[V], i int) {
	child := p.children[i]
	mid := t.degree - 1
	median := child.items[mid]

	right := &node[V]{}
	right.items = append(right.items, child.items[mid+1:]...)
	clear(child.items[mid:]) // a stale copy would keep a replaced value alive
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

// rotate makes room in p's full child i without splitting it: it moves
// the child's first item up into p and p's separator down to the end
// of the left sibling, or the child's last item up and the separator to
// the front of the right sibling, together with the edge child pointer
// of an internal child. It takes a side only when that sibling has room
// and key stays inside child i (strictly after the item that leaves
// first, or strictly before the one that leaves last), so the descent
// goes on into child i. It reports whether it rotated.
func (t *Tree[V]) rotate(p *node[V], i int, key string) bool {
	c := p.children[i]
	last := len(c.items) - 1
	if i > 0 && len(p.children[i-1].items) < t.maxItems() && key > c.items[0].key {
		l := p.children[i-1]
		l.items = append(l.items, p.items[i-1])
		p.items[i-1] = c.items[0]
		copy(c.items, c.items[1:])
		c.items[last] = item[V]{}
		c.items = c.items[:last]
		if c.children != nil {
			l.children = append(l.children, c.children[0])
			copy(c.children, c.children[1:])
			c.children = c.children[:last+1]
		}
		return true
	}
	if i+1 < len(p.children) && len(p.children[i+1].items) < t.maxItems() && key < c.items[last].key {
		r := p.children[i+1]
		r.items = append(r.items, item[V]{})
		copy(r.items[1:], r.items)
		r.items[0] = p.items[i]
		p.items[i] = c.items[last]
		c.items[last] = item[V]{}
		c.items = c.items[:last]
		if c.children != nil {
			r.children = append(r.children, nil)
			copy(r.children[1:], r.children)
			r.children[0] = c.children[last+1]
			c.children = c.children[:last+1]
		}
		return true
	}
	return false
}

// insertNonFull is Slot below the root: n has room.
func (t *Tree[V]) insertNonFull(n *node[V], key string) (*V, bool) {
	for {
		i, found := n.search(key)
		if found {
			return &n.items[i].val, false
		}
		if n.children == nil {
			n.items = append(n.items, item[V]{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = item[V]{key: key}
			t.size++
			return &n.items[i].val, true
		}
		if c := n.children[i]; len(c.items) == t.maxItems() {
			if p := lookup(c, key); p != nil {
				return p, false
			}
			// The key is absent, so it cannot be the median a split
			// lifts into n.
			if !t.rotate(n, i, key) {
				t.splitChild(n, i)
				if key > n.items[i].key {
					i++
				}
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
		if !fn(it.key, it.val) {
			return false
		}
	}
	if n.children != nil {
		return t.ascendRange(n.children[len(n.children)-1], from, to, fn)
	}
	return true
}
