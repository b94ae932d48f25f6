package trace

import "ampom/internal/memory"

// StrideCounts computes stride_d for d = 1..dmax over the window of page
// references w, per paper §3.1–3.2.
//
// The stride of page v is the minimum forward distance in w between a
// reference to v and a (later) reference to page v+1. stride_d is the
// number of distinct pages that participate in a stride-d pattern — both
// endpoints of each stride-d link count, and chains share members, so for
// {1,99,2,45,3,78,4} the stride-2 links 1→2, 2→3, 3→4 involve the four
// pages {1,2,3,4} and stride_2 = 4.
//
// The returned slice is indexed so that counts[d] is stride_d; counts[0] is
// unused. Consecutive repeats should be collapsed by the caller (the AMPoM
// window never records them).
func StrideCounts(w []memory.PageNum, dmax int) []int64 {
	counts := make([]int64, dmax+1)
	if len(w) < 2 {
		return counts
	}

	// minStride[v] = minimal forward distance from a reference to v to a
	// reference to v+1.
	minStride := make(map[memory.PageNum]int, len(w))
	pos := make(map[memory.PageNum][]int, len(w))
	for i, p := range w {
		pos[p] = append(pos[p], i)
	}
	for v, ps := range pos {
		succ, ok := pos[v+1]
		if !ok {
			continue
		}
		best := 0
		for _, i := range ps {
			for _, j := range succ {
				if j > i {
					if d := j - i; best == 0 || d < best {
						best = d
					}
					break // succ positions ascend; first j>i is closest
				}
			}
		}
		if best > 0 && best <= dmax {
			minStride[v] = best
		}
	}

	// A page participates in stride-d if it starts a stride-d link (its own
	// stride is d) or terminates one (page v-1 has stride d). Count each
	// page once per d.
	counted := make(map[memory.PageNum]map[int]bool, len(minStride)*2)
	add := func(v memory.PageNum, d int) {
		m := counted[v]
		if m == nil {
			m = make(map[int]bool, 2)
			counted[v] = m
		}
		if !m[d] {
			m[d] = true
			counts[d]++
		}
	}
	for v, d := range minStride {
		add(v, d)
		add(v+1, d)
	}
	return counts
}

// SpatialScore computes the spatial locality score of paper Eq. 1:
//
//	S = Σ_{d=1..dmax} stride_d / (l·d)
//
// where l is the window length used for normalisation. Purely sequential
// access scores 1; random access scores ≈ 0. The caller passes the nominal
// window length l, which may exceed len(w) while the window is filling.
func SpatialScore(w []memory.PageNum, l, dmax int) float64 {
	if l <= 0 || len(w) < 2 {
		return 0
	}
	counts := StrideCounts(w, dmax)
	s := 0.0
	for d := 1; d <= dmax; d++ {
		s += float64(counts[d]) / (float64(l) * float64(d))
	}
	if s > 1 {
		s = 1
	}
	return s
}

// SlidingSpatialScore averages SpatialScore over consecutive windows of
// length l across an entire collapsed page sequence — the whole-trace
// spatial locality used to reproduce Figure 4.
func SlidingSpatialScore(pages []memory.PageNum, l, dmax int) float64 {
	pages = CollapseRepeats(pages)
	if len(pages) < 2 {
		return 0
	}
	if len(pages) <= l {
		return SpatialScore(pages, l, dmax)
	}
	var sum float64
	var n int
	for i := 0; i+l <= len(pages); i += l {
		sum += SpatialScore(pages[i:i+l], l, dmax)
		n++
	}
	return sum / float64(n)
}

// TemporalScore measures page-level temporal reuse: the fraction of
// references (after the first window fills) whose page already occurs among
// the previous l references. A process cycling through a small set of pages
// scores near 1; a streaming or random process over a large footprint
// scores near 0.
func TemporalScore(pages []memory.PageNum, l int) float64 {
	if len(pages) <= 1 || l <= 0 {
		return 0
	}
	recent := make(map[memory.PageNum]int, l)
	var window []memory.PageNum
	var reused, total int
	for _, p := range pages {
		if len(window) == l {
			total++
			if recent[p] > 0 {
				reused++
			}
		}
		window = append(window, p)
		recent[p]++
		if len(window) > l {
			old := window[0]
			window = window[1:]
			recent[old]--
			if recent[old] == 0 {
				delete(recent, old)
			}
		}
	}
	if total == 0 {
		// Trace shorter than the window: fall back to repeat fraction.
		seen := make(map[memory.PageNum]bool, len(pages))
		re := 0
		for _, p := range pages {
			if seen[p] {
				re++
			}
			seen[p] = true
		}
		return float64(re) / float64(len(pages))
	}
	return float64(reused) / float64(total)
}
