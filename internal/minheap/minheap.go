// Package minheap is a binary min-heap kept directly in a slice and ordered
// by an explicit less function. Unlike container/heap it never boxes
// elements in interface{} values, so a push allocates only when the slice
// grows. less compares two elements in place, through pointers into the
// slice, so wide elements are not copied per comparison. The Time Warp
// kernel keeps its pending events, the LP scheduler's timestamp buckets and
// its delayed batches in it, and the sequential oracle its event queue.
package minheap

// Push adds x to the heap held in *s.
//
//kernelvet:noalloc
func Push[E any](s *[]E, x E, less func(a, b *E) bool) {
	*s = append(*s, x)
	h := *s
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// Pop removes and returns the least element of the non-empty heap in *s.
//
//kernelvet:noalloc
func Pop[E any](s *[]E, less func(a, b *E) bool) E {
	h := *s
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	var zero E
	h[n] = zero // drop references held by the vacated tail slot
	h = h[:n]
	*s = h
	// Sift the new root down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(&h[r], &h[l]) {
			m = r
		}
		if !less(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
