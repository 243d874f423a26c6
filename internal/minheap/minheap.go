// Package minheap is the one binary min-heap behind the repository's
// event queues: simnet's per-node and scheduler queues and
// transport.Local's delivery clock. The heap is a plain typed slice, so
// pushing and popping neither allocates (beyond the slice's growth) nor
// boxes an element into an interface, which container/heap does; less
// compares elements in place.
package minheap

// Push adds x to the heap h ordered by less and returns the heap.
func Push[T any](h []T, x T, less func(a, b *T) bool) []T {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// Pop removes the least element of the non-empty heap h ordered by
// less and returns the heap and that element. The slot it vacates is
// zeroed, so the heap's backing array keeps no reference to it.
func Pop[T any](h []T, less func(a, b *T) bool) ([]T, T) {
	top := h[0]
	n := len(h) - 1
	// The root's hole sinks along the lesser children to a leaf, and
	// the last element, kept in h[n] meanwhile, rises from there to
	// where it belongs: the last element is usually one of the largest,
	// so this takes about half the comparisons of sifting it down.
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && less(&h[c+1], &h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if !less(&h[n], &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = h[n]
	var zero T
	h[n] = zero
	return h[:n], top
}
