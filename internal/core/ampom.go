// Package core implements the AMPoM algorithm — the paper's primary
// contribution (§3): an adaptive, conservative prefetching scheme that, at
// every page fault of a migrated process, analyses the spatial locality of
// the recent fault stream and decides which and how many pages to prefetch
// from the process's origin node.
//
// The Prefetcher maintains the fixed-length lookback window W of faulted
// page addresses together with the T (access time) and C (CPU utilisation)
// arrays, computes the spatial locality score S (Eq. 1), sizes the dependent
// zone N = (c'/c)·S·r·(2t0 + td + 1/r) (Eq. 3), and identifies the zone's
// pages from the prefetch pivots of outstanding strided streams (§3.4).
//
// The implementation is allocation-free once warmed up: the window is a small
// ring, every working list is a reused buffer, and the stride search runs in
// O(l·dmax) — the WindowLen·DMax probes AnalysisCost charges — mirroring the
// cheap in-kernel analysis the paper reports (<0.6 % of runtime, Fig. 11).
package core

import (
	"fmt"
	"slices"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// Config holds the AMPoM tuning parameters. The defaults mirror the paper's
// implementation (§4).
type Config struct {
	// WindowLen is l, the lookback window length. Paper: 20.
	WindowLen int
	// DMax is the largest stride searched for. Paper: 4 ("most programs
	// perform at most two-level indirect memory references").
	DMax int
	// MaxPrefetch caps the dependent-zone size per fault, a safety valve the
	// kernel needs so a mis-estimated N cannot flood the network. 0 means
	// DefaultMaxPrefetch.
	MaxPrefetch int
	// BaselineScore is the fixed read-ahead baseline of §5.3: even when the
	// access pattern "is not clear" (S ≈ 0), AMPoM behaves like a
	// fixed-size read-ahead policy. We model this as a floor on the score
	// used for zone sizing (the reported Analysis.Score stays the raw
	// measurement). Zero means DefaultBaselineScore; negative disables the
	// baseline entirely (pure Eq. 3 — used by the ablation benchmarks).
	BaselineScore float64
}

// Defaults matching the paper's implementation.
const (
	DefaultWindowLen     = 20
	DefaultDMax          = 4
	DefaultMaxPrefetch   = 128
	DefaultBaselineScore = 0.6
)

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		WindowLen:     DefaultWindowLen,
		DMax:          DefaultDMax,
		MaxPrefetch:   DefaultMaxPrefetch,
		BaselineScore: DefaultBaselineScore,
	}
}

// Canonical returns the configuration with every "use the default" zero
// field replaced by the default it stands for, and any negative
// BaselineScore collapsed to the canonical disabled sentinel -1. The result
// is a fixed point: feeding it back through Canonical (or constructing a
// Prefetcher from it) changes nothing — the disabled sentinel must stay
// distinct from zero, which on input means "use the default". Two Configs
// with equal canonical forms configure identical behavior; the campaign
// engine builds its cache fingerprints from this, so keep it the single
// source of truth when adding fields or changing defaults.
func (c Config) Canonical() Config {
	if c.WindowLen == 0 {
		c.WindowLen = DefaultWindowLen
	}
	if c.DMax == 0 {
		c.DMax = DefaultDMax
	}
	if c.MaxPrefetch == 0 {
		c.MaxPrefetch = DefaultMaxPrefetch
	}
	if c.BaselineScore == 0 {
		c.BaselineScore = DefaultBaselineScore
	}
	if c.BaselineScore < 0 {
		c.BaselineScore = -1
	}
	return c
}

// normalised fills in zero fields and validates.
func (c Config) normalised() (Config, error) {
	c = c.Canonical()
	if c.BaselineScore < 0 {
		c.BaselineScore = 0 // disabled: the score floor vanishes
	}
	if c.BaselineScore > 1 {
		return c, fmt.Errorf("core: BaselineScore %v out of range (need <= 1)", c.BaselineScore)
	}
	if c.WindowLen < 2 {
		return c, fmt.Errorf("core: window length %d too small (need >= 2)", c.WindowLen)
	}
	if c.DMax < 1 || c.DMax >= c.WindowLen {
		return c, fmt.Errorf("core: dmax %d out of range (need 1 <= dmax < l=%d)", c.DMax, c.WindowLen)
	}
	if c.MaxPrefetch < 0 {
		return c, fmt.Errorf("core: negative MaxPrefetch %d", c.MaxPrefetch)
	}
	return c, nil
}

// Estimates carries the resource measurements AMPoM reads from the oM_infoD
// monitoring daemon at analysis time (§4).
type Estimates struct {
	// RTT is t0's round-trip component: the daemon-measured round trip time
	// between destination and origin nodes. Note the paper measures this
	// with user-level load-update acknowledgements, so it is much larger
	// than the wire RTT — see DESIGN.md.
	RTT simtime.Duration
	// PageTransfer is td, the time to transfer one page at the currently
	// estimated available bandwidth.
	PageTransfer simtime.Duration
}

// Analysis is the outcome of one per-fault run of the AMPoM algorithm.
type Analysis struct {
	// Score is the spatial locality score S in [0, 1].
	Score float64
	// PagingRate is r in faults per second of Eq. 2/3.
	PagingRate float64
	// CPUMean is c, the mean CPU utilisation over the window.
	CPUMean float64
	// CPUExpected is c' = C_l, the most recent utilisation sample.
	CPUExpected float64
	// NReal is N before truncation, useful for diagnostics.
	NReal float64
	// N is the dependent-zone size actually used (⌊NReal⌋, capped).
	N int
	// Streams is m, the number of outstanding strided streams found.
	Streams int
	// Pivots are the prefetch pivots of the outstanding streams, in window
	// order; nil when there are none.
	Pivots []memory.PageNum
	// Zone is the dependent zone: up to N distinct candidate pages, in
	// prefetch priority order; nil when N is 0. The caller filters out
	// pages already local or in flight before issuing the remote paging
	// request.
	//
	// Pivots and Zone live in buffers the Prefetcher reuses: they stay
	// valid only until the next Analyze on the same Prefetcher. A caller
	// that keeps either past that point must copy it.
	Zone []memory.PageNum
}

// entry is one lookback-window slot.
type entry struct {
	page memory.PageNum
	t    simtime.Time // T_i: access (fault) time
	cpu  float64      // C_i: CPU utilisation when recorded
}

// Prefetcher is the per-process AMPoM state: the lookback window and the
// analysis machinery. Create one per migrant with New.
type Prefetcher struct {
	cfg Config

	win   []entry // ring buffer, oldest at head
	head  int
	count int

	maxPage memory.PageNum // one past the last valid page

	// Per-analysis scratch, reused so that Analyze allocates nothing once
	// the zone buffer has grown to the largest zone: the window pages, each
	// slot's stride, the score's page-sorted link list and per-stride
	// counts, the zone's stream runs, and the buffers behind
	// Analysis.Pivots and Analysis.Zone.
	pages    []memory.PageNum
	strides  []int
	links    []pageStride
	counts   []int64
	runs     []pageRun
	pivotBuf []memory.PageNum
	zoneBuf  []memory.PageNum

	// cumulative statistics for the evaluation figures.
	faults     int64
	prefetched int64
}

// New returns a Prefetcher for an address space of totalPages pages.
func New(cfg Config, totalPages int64) (*Prefetcher, error) {
	cfg, err := cfg.normalised()
	if err != nil {
		return nil, err
	}
	if err := checkPages(totalPages); err != nil {
		return nil, err
	}
	l := cfg.WindowLen
	return &Prefetcher{
		cfg:      cfg,
		win:      make([]entry, l),
		maxPage:  memory.PageNum(totalPages),
		pages:    make([]memory.PageNum, 0, l),
		strides:  make([]int, l),
		links:    make([]pageStride, 0, l),
		counts:   make([]int64, cfg.DMax+1),
		runs:     make([]pageRun, 0, l),
		pivotBuf: make([]memory.PageNum, 0, l),
		zoneBuf:  make([]memory.PageNum, 0, min(cfg.MaxPrefetch, DefaultMaxPrefetch)),
	}, nil
}

// MustNew is New panicking on error, for fixtures.
func MustNew(cfg Config, totalPages int64) *Prefetcher {
	p, err := New(cfg, totalPages)
	if err != nil {
		panic(err)
	}
	return p
}

// checkPages rejects a non-positive address-space size.
func checkPages(totalPages int64) error {
	if totalPages <= 0 {
		return fmt.Errorf("core: non-positive address space size %d", totalPages)
	}
	return nil
}

// Reset returns p to the state New leaves it in for an address space of
// totalPages pages: an empty window and zeroed fault and prefetch counts,
// under the same configuration. Every buffer is kept, so a caller that
// dry-runs many short streams reuses one Prefetcher without allocating.
// Like MustNew, it panics on a non-positive totalPages.
func (p *Prefetcher) Reset(totalPages int64) {
	if err := checkPages(totalPages); err != nil {
		panic(err)
	}
	p.head, p.count = 0, 0
	p.maxPage = memory.PageNum(totalPages)
	p.faults, p.prefetched = 0, 0
}

// Config returns the active configuration.
func (p *Prefetcher) Config() Config { return p.cfg }

// WindowLen returns the number of entries currently in the window.
func (p *Prefetcher) WindowLen() int { return p.count }

// at returns the i-th window entry, 0 = oldest.
func (p *Prefetcher) at(i int) *entry {
	return &p.win[(p.head+i)%len(p.win)]
}

// RecordFault appends a fault on page at time now with CPU utilisation cpu
// to the lookback window. When the window is full the oldest entry is
// discarded (§3.1). Consecutive repeated references to the same page are
// temporal locality and collapse into a single reference (§3.1); the entry's
// time and utilisation are refreshed so the paging rate stays current.
func (p *Prefetcher) RecordFault(page memory.PageNum, now simtime.Time, cpu float64) {
	if cpu < 0 {
		cpu = 0
	}
	if cpu > 1 {
		cpu = 1
	}
	p.faults++
	if p.count > 0 {
		last := p.at(p.count - 1)
		if last.page == page {
			last.t = now
			last.cpu = cpu
			return
		}
	}
	if p.count == len(p.win) {
		p.head = (p.head + 1) % len(p.win)
		p.count--
	}
	*p.at(p.count) = entry{page: page, t: now, cpu: cpu}
	p.count++
}

// Faults returns the number of faults recorded so far.
func (p *Prefetcher) Faults() int64 { return p.faults }

// NotePrefetched accumulates the count of pages actually requested as
// prefetches (after residency filtering), for the Figure 8 statistic.
func (p *Prefetcher) NotePrefetched(n int) { p.prefetched += int64(n) }

// Prefetched returns the cumulative number of prefetched pages.
func (p *Prefetcher) Prefetched() int64 { return p.prefetched }

// Analyze runs the AMPoM analysis for the current window state and returns
// the dependent zone. It is called at every page fault, after RecordFault.
func (p *Prefetcher) Analyze(est Estimates) Analysis {
	var a Analysis
	if p.count < 2 {
		return a
	}

	// Gather the window pages and the CPU sum, oldest first, walking the
	// ring as its two contiguous segments; then the strides, shared by the
	// score and the pivot search.
	w := p.pages[:0]
	var cpuSum float64
	tail := min(p.head+p.count, len(p.win))
	for _, e := range p.win[p.head:tail] {
		w = append(w, e.page)
		cpuSum += e.cpu
	}
	for _, e := range p.win[:p.count-(tail-p.head)] {
		w = append(w, e.page)
		cpuSum += e.cpu
	}
	p.pages = w
	strides := p.strides[:len(w)]
	for i := range w {
		strides[i] = p.strideOf(w, i)
	}

	// --- Spatial locality score S (Eq. 1) ---------------------------------
	a.Score = p.score(w, strides)

	// --- Paging rate r and CPU terms (Eq. 2) ------------------------------
	first, last := p.at(0), p.at(p.count-1)
	span := last.t.Sub(first.t)
	if span <= 0 {
		span = simtime.Nanosecond
	}
	a.PagingRate = float64(p.count) / span.Seconds()
	a.CPUMean = cpuSum / float64(p.count)
	a.CPUExpected = last.cpu

	// --- Dependent zone size N (Eq. 3) ------------------------------------
	// N = (c'/c) · S · r · t with t = 2t0 + td + 1/r, i.e.
	// N = (c'/c) · S · (r·(2t0+td) + 1).
	// c'/c, clamped: the utilisation probes come from coarse daemon
	// sampling, and an unbounded ratio would let one noisy sample swing the
	// zone size by orders of magnitude.
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
	// t = 2t0 + td + 1/r. The daemon reports the round trip directly, so
	// 2t0 = RTT, and N = (c'/c)·S·r·t = (c'/c)·S·(r·(RTT+td) + 1).
	// The score is floored at the read-ahead baseline (§5.3) for sizing.
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

	// --- Which pages: prefetch pivots of outstanding streams (§3.4) -------
	a.Pivots = p.pivots(w, strides)
	a.Streams = len(a.Pivots)
	if a.N > 0 {
		a.Zone = p.zone(w[len(w)-1], a.Pivots, a.N)
	}
	return a
}

// strideOf returns the stride of the page at window position i: the minimum
// forward distance d (1 ≤ d ≤ DMax) to a later reference to page w[i]+1, or
// 0 when none exists within DMax. Only the next DMax slots are scanned: a
// first reference to w[i]+1 beyond them is no stride at all.
func (p *Prefetcher) strideOf(w []memory.PageNum, i int) int {
	want := w[i] + 1
	end := min(i+p.cfg.DMax, len(w)-1)
	for j := i + 1; j <= end; j++ {
		if w[j] == want {
			return j - i
		}
	}
	return 0
}

// pageStride is one (page, stride) link of the score: page's minimum
// forward distance d to page+1. With at most l = 20 links a flat sorted
// list beats a map.
type pageStride struct {
	page memory.PageNum
	d    int
}

// score computes the spatial locality score S of Eq. 1:
//
//	S = Σ_{d=1..dmax} stride_d / (l·d)
//
// stride_d counts distinct pages participating in stride-d patterns — both
// the page whose minimum forward distance to its successor page is d and
// that successor page itself, matching the paper's worked examples (e.g.
// {1,99,2,45,3,78,4} ⇒ stride_2 = 4 for pages {1,2,3,4}). strides[i] is
// strideOf(w, i).
//
// The participations are the distinct (page, d) and (page+1, d) endpoints
// of the links, one link per page value. Two links never share a first
// endpoint, nor a second one, so with the links sorted by page the only
// collision is a link's second endpoint landing on the next link's first:
// pages p and p+1 linked at the same d. Counting is one linear pass.
func (p *Prefetcher) score(w []memory.PageNum, strides []int) float64 {
	// Minimum forward distance per page *value*, across duplicate
	// positions, kept sorted by page. The search starts at the end, where a
	// rising stream appends.
	links := p.links[:0]
	for i, d := range strides {
		if d == 0 {
			continue
		}
		k := len(links)
		for k > 0 && links[k-1].page > w[i] {
			k--
		}
		if k > 0 && links[k-1].page == w[i] {
			links[k-1].d = min(links[k-1].d, d)
			continue
		}
		links = slices.Insert(links, k, pageStride{w[i], d})
	}
	p.links = links

	counts := p.counts
	clear(counts)
	for k, lk := range links {
		counts[lk.d] += 2
		if k+1 < len(links) && links[k+1] == (pageStride{lk.page + 1, lk.d}) {
			counts[lk.d]--
		}
	}

	l := p.cfg.WindowLen
	s := 0.0
	for d := 1; d <= p.cfg.DMax; d++ {
		s += float64(counts[d]) / (float64(l) * float64(d))
	}
	if s > 1 {
		s = 1
	}
	return s
}

// pivots finds the outstanding strided streams and their prefetch pivots
// (§3.4). A stride-d link w[q] = w[p]+1 (d = q−p ≤ DMax) is outstanding
// when its completing reference sits in the last d window slots — in the
// paper's 1-based indexing (p+d) > l−d, i.e. q ≥ len(w)−d here, so only
// the last 2·DMax slots can start one. The pivot is the page after the
// stream's last page, w[q]+1. Pivots are deduplicated and clamped to the
// address space. The result is nil when there are no streams.
func (p *Prefetcher) pivots(w []memory.PageNum, strides []int) []memory.PageNum {
	out := p.pivotBuf[:0]
	n := len(w)
	for i := max(0, n-2*p.cfg.DMax); i < n; i++ {
		d := strides[i]
		if d == 0 || i+d < n-d {
			continue // no stride, or stream no longer outstanding
		}
		piv := w[i+d] + 1
		if piv >= 0 && piv < p.maxPage && !slices.Contains(out, piv) {
			out = append(out, piv)
		}
	}
	p.pivotBuf = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// pageRun is the half-open page interval [lo, hi) one stream scanned while
// taking its zone quota.
type pageRun struct{ lo, hi memory.PageNum }

// zone materialises the dependent zone: n pages distributed over the pivots
// (n/m pages following each pivot, duplicates rolling their quota forward to
// further pages — §3.4), or, with no outstanding streams, the n pages
// following the last faulted page, imitating Linux read-ahead.
func (p *Prefetcher) zone(last memory.PageNum, pivots []memory.PageNum, n int) []memory.PageNum {
	out := p.zoneBuf[:0]
	if len(pivots) == 0 {
		// Consecutive pages: distinct by construction.
		page := max(last+1, 0)
		for end := min(page+memory.PageNum(n), p.maxPage); page < end; page++ {
			out = append(out, page)
		}
		p.zoneBuf = out
		return out
	}

	// Each stream scans one contiguous run [pivot, end) in which every page
	// is either taken or was taken by an earlier stream, so the pages chosen
	// so far are exactly the union of the earlier runs.
	runs := p.runs[:0]
	m := len(pivots)
	quota := n / m
	extra := n % m
	for idx, piv := range pivots {
		q := quota
		if idx < extra {
			q++
		}
		// Take q *fresh* pages starting at the pivot; pages already chosen
		// by an earlier stream do not consume quota ("saved quota").
		page := piv
	scan:
		for q > 0 && page < p.maxPage {
			for _, r := range runs {
				if r.lo <= page && page < r.hi {
					page = r.hi
					continue scan
				}
			}
			out = append(out, page)
			q--
			page++
		}
		runs = append(runs, pageRun{piv, page})
	}
	p.runs = runs
	p.zoneBuf = out
	return out
}
