package memory

import "math/bits"

// PageSet is a set of pages, one bit per page. It is a slice, so a copy
// shares its members, clear empties it and reslicing to (n+63)/64 words
// narrows it to pages [0, n). A page past the last word panics.
type PageSet []uint64

// NewPageSet returns an empty set with room for pages [0, n).
func NewPageSet(n int64) PageSet { return make(PageSet, (n+63)/64) }

// Has reports whether p is in the set.
func (s PageSet) Has(p PageNum) bool { return s[p>>6]&(1<<(p&63)) != 0 }

// Add puts p in the set and reports whether it was absent.
func (s PageSet) Add(p PageNum) bool {
	w, b := &s[p>>6], uint64(1)<<(p&63)
	added := *w&b == 0
	*w |= b
	return added
}

// Remove takes p out of the set and reports whether it was present.
func (s PageSet) Remove(p PageNum) bool {
	w, b := &s[p>>6], uint64(1)<<(p&63)
	removed := *w&b != 0
	*w &^= b
	return removed
}

// Len returns the number of pages in the set.
func (s PageSet) Len() int64 {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return int64(n)
}
