package core

import (
	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// window returns a copy of p's window contents, oldest first.
func window(p *Prefetcher) []memory.PageNum {
	out := make([]memory.PageNum, 0, p.count)
	for i := 0; i < p.count; i++ {
		out = append(out, p.at(i).page)
	}
	return out
}

// strideMismatch returns the first window position whose kept stride
// differs from refStrideOf over the window's pages, and that stride and
// the reference's; pos is -1 when every slot agrees.
func strideMismatch(p *Prefetcher) (pos, kept, ref int) {
	w := window(p)
	for i := range w {
		if kept, ref := p.at(i).stride, refStrideOf(p.cfg, w, i); kept != ref {
			return i, kept, ref
		}
	}
	return -1, 0, 0
}

// refAnalyze is a frozen copy of the original, straightforward AMPoM
// analysis: an unbounded stride scan run once by the score and again by the
// pivot search, per-call slices, and a map deduplicating the dependent zone.
// It is the differential oracle for the allocation-free Analyze — the
// fuzzer checks that every field of the two agree exactly on every fault.
// Keep it as it is; it pins the model, not the implementation.
func refAnalyze(p *Prefetcher, est Estimates) Analysis {
	var a Analysis
	if p.count < 2 {
		return a
	}
	w := window(p)
	a.Score = refScore(p.cfg, w)

	first, last := p.at(0), p.at(p.count-1)
	span := last.t.Sub(first.t)
	if span <= 0 {
		span = simtime.Nanosecond
	}
	a.PagingRate = float64(p.count) / span.Seconds()
	var cpuSum float64
	for i := 0; i < p.count; i++ {
		cpuSum += p.at(i).cpu
	}
	a.CPUMean = cpuSum / float64(p.count)
	a.CPUExpected = last.cpu

	ratio := 1.0
	if a.CPUMean > 0 {
		ratio = a.CPUExpected / a.CPUMean
	}
	if ratio < 0.25 {
		ratio = 0.25
	}
	if ratio > 4 {
		ratio = 4
	}
	t := est.RTT.Seconds() + est.PageTransfer.Seconds()
	effScore := a.Score
	if effScore < p.cfg.BaselineScore {
		effScore = p.cfg.BaselineScore
	}
	a.NReal = ratio * effScore * (a.PagingRate*t + 1)
	a.N = int(a.NReal)
	if a.N > p.cfg.MaxPrefetch {
		a.N = p.cfg.MaxPrefetch
	}
	if a.N < 0 {
		a.N = 0
	}

	a.Pivots = refPivots(p.cfg, p.maxPage, w)
	a.Streams = len(a.Pivots)
	if a.N > 0 {
		a.Zone = refZone(p.maxPage, w, a.Pivots, a.N)
	}
	return a
}

// refStrideOf scans the whole remaining window for w[i]+1 and rejects a
// first match beyond DMax.
func refStrideOf(cfg Config, w []memory.PageNum, i int) int {
	want := w[i] + 1
	for j := i + 1; j < len(w); j++ {
		if w[j] == want {
			if d := j - i; d <= cfg.DMax {
				return d
			}
			return 0
		}
	}
	return 0
}

func refScore(cfg Config, w []memory.PageNum) float64 {
	type pd struct {
		page memory.PageNum
		d    int
	}
	links := make([]pd, 0, len(w))
	for i := range w {
		d := refStrideOf(cfg, w, i)
		if d == 0 {
			continue
		}
		found := false
		for k := range links {
			if links[k].page == w[i] {
				found = true
				if d < links[k].d {
					links[k].d = d
				}
				break
			}
		}
		if !found {
			links = append(links, pd{w[i], d})
		}
	}
	var members []pd
	addMember := func(page memory.PageNum, d int) bool {
		for _, m := range members {
			if m.page == page && m.d == d {
				return false
			}
		}
		members = append(members, pd{page, d})
		return true
	}
	counts := make([]int64, cfg.DMax+1)
	for _, lk := range links {
		if addMember(lk.page, lk.d) {
			counts[lk.d]++
		}
		if addMember(lk.page+1, lk.d) {
			counts[lk.d]++
		}
	}
	l := cfg.WindowLen
	s := 0.0
	for d := 1; d <= cfg.DMax; d++ {
		s += float64(counts[d]) / (float64(l) * float64(d))
	}
	if s > 1 {
		s = 1
	}
	return s
}

func refPivots(cfg Config, maxPage memory.PageNum, w []memory.PageNum) []memory.PageNum {
	var out []memory.PageNum
	n := len(w)
	seen := func(piv memory.PageNum) bool {
		for _, o := range out {
			if o == piv {
				return true
			}
		}
		return false
	}
	for i := range w {
		d := refStrideOf(cfg, w, i)
		if d == 0 {
			continue
		}
		q := i + d
		if q < n-d {
			continue
		}
		piv := w[q] + 1
		if piv >= 0 && piv < maxPage && !seen(piv) {
			out = append(out, piv)
		}
	}
	return out
}

func refZone(maxPage memory.PageNum, w []memory.PageNum, pivots []memory.PageNum, n int) []memory.PageNum {
	out := make([]memory.PageNum, 0, n)
	chosen := make(map[memory.PageNum]bool, n)
	add := func(page memory.PageNum) bool {
		if page < 0 || page >= maxPage || chosen[page] {
			return false
		}
		chosen[page] = true
		out = append(out, page)
		return true
	}
	if len(pivots) == 0 {
		last := w[len(w)-1]
		for i := 1; len(out) < n; i++ {
			page := last + memory.PageNum(i)
			if page >= maxPage {
				break
			}
			add(page)
		}
		return out
	}
	m := len(pivots)
	quota := n / m
	extra := n % m
	for idx, piv := range pivots {
		q := quota
		if idx < extra {
			q++
		}
		for page := piv; q > 0 && page < maxPage; page++ {
			if add(page) {
				q--
			}
		}
	}
	return out
}
