package hpcc

import (
	"math"
	"testing"
	"testing/quick"

	"ampom/internal/memory"
	"ampom/internal/prng"
	"ampom/internal/trace"
)

// Mini-kernels: small, *real* implementations of the four HPCC kernels,
// instrumented to record the page-level reference stream their actual
// memory accesses produce. They exist to validate the synthetic workload
// models: the tests check that each generator lands in the same Figure 4
// locality quadrant as the real computation it stands for.
//
// The recorder maps element indices to pages assuming 8-byte elements
// (512 per 4 KiB page), the layout of the double-precision HPCC kernels.

// elemsPerPage is the number of float64 elements per page.
const elemsPerPage = memory.PageSize / 8

// recorder captures page-level references of a real kernel run. Arrays are
// registered with a page offset so distinct arrays occupy distinct page
// ranges, as they do in a real address space.
type recorder struct {
	pages []memory.PageNum
	last  memory.PageNum
	prime bool
}

// touch records element i of an array starting at page base.
func (r *recorder) touch(base memory.PageNum, i int) {
	p := base + memory.PageNum(i/elemsPerPage)
	// Collapse consecutive repeats at record time: within-page runs are
	// temporal locality the page-level stream does not distinguish.
	if r.prime && p == r.last {
		return
	}
	r.pages = append(r.pages, p)
	r.last = p
	r.prime = true
}

// MiniDGEMM multiplies two n×n matrices the blocked way (block size b) and
// returns the recorded page reference stream. A, B and C live at distinct
// page bases.
func MiniDGEMM(n, b int) []memory.PageNum {
	if b <= 0 || b > n {
		b = n
	}
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.5
		bb[i] = float64(i%5) * 0.25
	}
	matPages := memory.PageNum((n*n + elemsPerPage - 1) / elemsPerPage)
	aBase, bBase, cBase := memory.PageNum(0), matPages, 2*matPages

	var rec recorder
	for jj := 0; jj < n; jj += b {
		for kk := 0; kk < n; kk += b {
			for i := 0; i < n; i++ {
				for k := kk; k < min(kk+b, n); k++ {
					aik := a[i*n+k]
					rec.touch(aBase, i*n+k)
					for j := jj; j < min(jj+b, n); j++ {
						rec.touch(bBase, k*n+j)
						c[i*n+j] += aik * bb[k*n+j]
						rec.touch(cBase, i*n+j)
					}
				}
			}
		}
	}
	return rec.pages
}

// MiniSTREAM runs the four STREAM operations over arrays of n elements for
// iters iterations and returns the page stream.
func MiniSTREAM(n, iters int) []memory.PageNum {
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
	}
	arrPages := memory.PageNum((n + elemsPerPage - 1) / elemsPerPage)
	aBase, bBase, cBase := memory.PageNum(0), arrPages, 2*arrPages

	var rec recorder
	const scalar = 3.0
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ { // Copy: c = a
			rec.touch(aBase, i)
			c[i] = a[i]
			rec.touch(cBase, i)
		}
		for i := 0; i < n; i++ { // Scale: b = s*c
			rec.touch(cBase, i)
			b[i] = scalar * c[i]
			rec.touch(bBase, i)
		}
		for i := 0; i < n; i++ { // Add: c = a + b
			rec.touch(aBase, i)
			rec.touch(bBase, i)
			c[i] = a[i] + b[i]
			rec.touch(cBase, i)
		}
		for i := 0; i < n; i++ { // Triad: a = b + s*c
			rec.touch(bBase, i)
			rec.touch(cBase, i)
			a[i] = b[i] + scalar*c[i]
			rec.touch(aBase, i)
		}
	}
	return rec.pages
}

// MiniRandomAccess performs updates random xor-updates over a table of n
// 64-bit words (GUPS) and returns the page stream.
func MiniRandomAccess(n, updates int, seed uint64) []memory.PageNum {
	table := make([]uint64, n)
	for i := range table {
		table[i] = uint64(i)
	}
	rng := prng.New(seed)
	var rec recorder
	for u := 0; u < updates; u++ {
		ran := rng.Uint64()
		i := int(ran % uint64(n))
		table[i] ^= ran
		rec.touch(0, i)
	}
	return rec.pages
}

// MiniFFT computes an in-place radix-2 FFT over n complex points (n a
// power of two), recording the page stream of its real/imaginary arrays —
// the bit-reversal permutation followed by the log n butterfly passes.
func MiniFFT(n int) []memory.PageNum {
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Sin(float64(i))
	}
	var rec recorder

	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			rec.touch(0, i)
			rec.touch(0, j)
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
	}
	// Butterfly passes.
	for size := 2; size <= n; size <<= 1 {
		ang := -2 * math.Pi / float64(size)
		wr, wi := math.Cos(ang), math.Sin(ang)
		for start := 0; start < n; start += size {
			cwr, cwi := 1.0, 0.0
			for k := 0; k < size/2; k++ {
				i, j := start+k, start+k+size/2
				rec.touch(0, i)
				rec.touch(0, j)
				tr := re[j]*cwr - im[j]*cwi
				ti := re[j]*cwi + im[j]*cwr
				re[j], im[j] = re[i]-tr, im[i]-ti
				re[i], im[i] = re[i]+tr, im[i]+ti
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
	}
	return rec.pages
}

// dedupeRecent filters a raw page-reference sequence down to the stream a
// page-level observer (the TLB, the fault handler) would see: a reference
// is kept only if its page is not among the last k distinct pages emitted.
// Element-level kernels alternate between the pages of their operand
// arrays hundreds of times per page boundary; after deduplication the
// sequence advances one entry per page transition, matching the
// granularity of the synthetic workload models and of AMPoM's window.
func dedupeRecent(pages []memory.PageNum, k int) []memory.PageNum {
	if k < 1 {
		k = 1
	}
	var out []memory.PageNum
	recent := make([]memory.PageNum, 0, k)
	isRecent := func(p memory.PageNum) bool {
		for _, r := range recent {
			if r == p {
				return true
			}
		}
		return false
	}
	for _, p := range pages {
		if isRecent(p) {
			continue
		}
		out = append(out, p)
		recent = append(recent, p)
		if len(recent) > k {
			recent = recent[1:]
		}
	}
	return out
}

// distinctPages returns the number of distinct pages in the sequence — the
// page-level footprint.
func distinctPages(pages []memory.PageNum) int64 {
	seen := make(map[memory.PageNum]bool, len(pages))
	for _, p := range pages {
		seen[p] = true
	}
	return int64(len(seen))
}

func pageNums(vs ...int64) []memory.PageNum {
	out := make([]memory.PageNum, len(vs))
	for i, v := range vs {
		out[i] = memory.PageNum(v)
	}
	return out
}

// The mini-kernels are real computations; these tests validate that the
// synthetic workload generators land in the same Figure 4 locality
// quadrants as the genuine article.
//
// Real kernels touch elements, alternating between operand arrays hundreds
// of times per page; dedupeRecent reduces their streams to the page-level
// view AMPoM's window actually observes before scoring.

const dedupeWindow = 8

func pageView(ps []memory.PageNum) []memory.PageNum {
	return dedupeRecent(ps, dedupeWindow)
}

func TestMiniSTREAMLocality(t *testing.T) {
	ps := pageView(MiniSTREAM(64*elemsPerPage, 2)) // 64 pages per array
	s := trace.SlidingSpatialScore(ps, 20, 4)
	tmp := trace.TemporalScore(ps, 192*2/5)
	if s < 0.3 {
		t.Fatalf("real STREAM spatial = %.3f, want high", s)
	}
	if tmp > 0.3 {
		t.Fatalf("real STREAM temporal = %.3f, want low", tmp)
	}
}

func TestMiniDGEMMLocality(t *testing.T) {
	ps := pageView(MiniDGEMM(128, 32)) // 32 pages per matrix, blocked 32
	s := trace.SlidingSpatialScore(ps, 20, 4)
	tmp := trace.TemporalScore(ps, 38)
	if s < 0.3 {
		t.Fatalf("real DGEMM spatial = %.3f, want moderate+", s)
	}
	if tmp < 0.45 {
		t.Fatalf("real DGEMM temporal = %.3f, want high (blocked reuse)", tmp)
	}
}

func TestMiniRandomAccessLocality(t *testing.T) {
	n := 128 * elemsPerPage
	ps := pageView(MiniRandomAccess(n, 4096, 5))
	s := trace.SlidingSpatialScore(ps, 20, 4)
	if s > 0.15 {
		t.Fatalf("real GUPS spatial = %.3f, want ≈0", s)
	}
}

func TestMiniFFTLocality(t *testing.T) {
	// The in-place radix-2 FFT re-sweeps its whole footprint every pass
	// (reuse distance ≈ 2× the footprint) and its butterfly strides are
	// page-sized or larger — Figure 4's low-spatial/high-temporal corner,
	// exactly where the paper places FFT.
	ps := pageView(MiniFFT(1 << 16)) // 2^16 points over 128 pages
	s := trace.SlidingSpatialScore(ps, 20, 4)
	tmp := trace.TemporalScore(ps, 256)
	if tmp < 0.45 {
		t.Fatalf("real FFT temporal = %.3f, want high (pass reuse)", tmp)
	}
	if s > 0.15 {
		t.Fatalf("real FFT spatial = %.3f, want low (butterfly strides)", s)
	}
}

func TestMiniKernelsCoverFootprint(t *testing.T) {
	// Each mini-kernel touches its whole footprint, like the real HPCC.
	cases := []struct {
		name  string
		ps    []memory.PageNum
		pages int64
	}{
		{"STREAM", MiniSTREAM(32*elemsPerPage, 1), 3 * 32},
		{"DGEMM", MiniDGEMM(48, 16), 3 * 5},
		{"FFT", MiniFFT(1 << 14), 32},
	}
	for _, c := range cases {
		got := distinctPages(c.ps)
		if got < c.pages*9/10 {
			t.Errorf("%s touched %d of %d pages", c.name, got, c.pages)
		}
	}
}

// TestGeneratorsMatchRealKernels is the validation headline: for each
// kernel, the synthetic generator and the real mini-kernel agree on the
// relative locality orderings that drive AMPoM's behaviour.
func TestGeneratorsMatchRealKernels(t *testing.T) {
	type scores struct{ spatial, temporal float64 }
	real := map[Kernel]scores{}

	rs := pageView(MiniSTREAM(64*elemsPerPage, 2))
	rd := pageView(MiniDGEMM(128, 32))
	rr := pageView(MiniRandomAccess(128*elemsPerPage, 4096, 5))
	rf := pageView(MiniFFT(1 << 16))
	real[STREAM] = scores{trace.SlidingSpatialScore(rs, 20, 4), trace.TemporalScore(rs, 76)}
	real[DGEMM] = scores{trace.SlidingSpatialScore(rd, 20, 4), trace.TemporalScore(rd, 38)}
	real[RandomAccess] = scores{trace.SlidingSpatialScore(rr, 20, 4), trace.TemporalScore(rr, 51)}
	real[FFT] = scores{trace.SlidingSpatialScore(rf, 20, 4), trace.TemporalScore(rf, 256)}

	synth := map[Kernel]scores{}
	for _, k := range Kernels() {
		w := MustBuild(Scaled(CatalogueFor(k)[0], 16), 5)
		s, tmp := Locality(w)
		synth[k] = scores{s, tmp}
	}

	// Spatial ordering: STREAM clearly above RandomAccess in both worlds.
	if !(real[STREAM].spatial > real[RandomAccess].spatial+0.1) {
		t.Errorf("real kernels: STREAM spatial %.3f not ≫ RandomAccess %.3f",
			real[STREAM].spatial, real[RandomAccess].spatial)
	}
	if !(synth[STREAM].spatial > synth[RandomAccess].spatial+0.1) {
		t.Errorf("generators: STREAM spatial %.3f not ≫ RandomAccess %.3f",
			synth[STREAM].spatial, synth[RandomAccess].spatial)
	}
	// Spatial: DGEMM also clearly above RandomAccess in both worlds.
	if !(real[DGEMM].spatial > real[RandomAccess].spatial+0.1) {
		t.Errorf("real kernels: DGEMM spatial %.3f not ≫ RandomAccess %.3f",
			real[DGEMM].spatial, real[RandomAccess].spatial)
	}
	if !(synth[DGEMM].spatial > synth[RandomAccess].spatial+0.1) {
		t.Errorf("generators: DGEMM spatial %.3f not ≫ RandomAccess %.3f",
			synth[DGEMM].spatial, synth[RandomAccess].spatial)
	}
	// Temporal ordering: DGEMM and FFT above STREAM in both worlds.
	for _, k := range []Kernel{DGEMM, FFT} {
		if !(real[k].temporal > real[STREAM].temporal) {
			t.Errorf("real kernels: %v temporal %.3f not above STREAM %.3f",
				k, real[k].temporal, real[STREAM].temporal)
		}
		if !(synth[k].temporal > synth[STREAM].temporal) {
			t.Errorf("generators: %v temporal %.3f not above STREAM %.3f",
				k, synth[k].temporal, synth[STREAM].temporal)
		}
	}
}

func TestDistinctPages(t *testing.T) {
	if got := distinctPages(pageNums(1, 2, 2, 3, 1)); got != 3 {
		t.Fatalf("distinct = %d", got)
	}
	if got := distinctPages(nil); got != 0 {
		t.Fatalf("distinct(nil) = %d", got)
	}
}

func TestDedupeRecent(t *testing.T) {
	// Element-level alternation between two pages collapses to one entry
	// per page transition.
	raw := pageNums(1, 2, 1, 2, 1, 2, 3, 4, 3, 4)
	got := dedupeRecent(raw, 4)
	want := pageNums(1, 2, 3, 4)
	if len(got) != len(want) {
		t.Fatalf("dedupe = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedupe = %v, want %v", got, want)
		}
	}
	// A page re-appearing beyond the window is kept.
	raw = pageNums(1, 2, 3, 4, 5, 1)
	got = dedupeRecent(raw, 4)
	if got[len(got)-1] != 1 {
		t.Fatalf("out-of-window revisit dropped: %v", got)
	}
	// Degenerate window clamps to 1 (only consecutive repeats removed).
	got = dedupeRecent(pageNums(7, 7, 8), 0)
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("k=0 dedupe = %v", got)
	}
	if out := dedupeRecent(nil, 4); len(out) != 0 {
		t.Fatal("dedupe(nil) not empty")
	}
}

// TestDedupeRecentProperty: dedupeRecent's output never contains a page within k of its
// previous occurrence, and preserves first-occurrence order.
func TestDedupeRecentProperty(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		in := make([]memory.PageNum, len(raw))
		for i, r := range raw {
			in[i] = memory.PageNum(r % 16)
		}
		out := dedupeRecent(in, k)
		for i, p := range out {
			lo := i - k
			if lo < 0 {
				lo = 0
			}
			for j := lo; j < i; j++ {
				if out[j] == p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
