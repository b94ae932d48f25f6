package hpcc

import (
	"strings"
	"testing"

	"ampom/internal/memory"
	"ampom/internal/trace"
)

// TestCatalogueMatchesTable1 pins the catalogue to the paper's Table 1.
func TestCatalogueMatchesTable1(t *testing.T) {
	type row struct {
		problem int64
		mb      int64
	}
	want := map[Kernel][]row{
		DGEMM:        {{7600, 115}, {10850, 230}, {13350, 345}, {15450, 460}, {17350, 575}},
		STREAM:       {{7750, 115}, {11000, 230}, {13450, 345}, {15520, 460}, {17400, 575}},
		RandomAccess: {{8000, 65}, {11000, 129}, {16000, 260}, {23000, 513}},
		FFT:          {{8000, 65}, {11000, 129}, {16000, 260}, {23000, 513}},
	}
	for k, rows := range want {
		got := CatalogueFor(k)
		if len(got) != len(rows) {
			t.Fatalf("%v: %d rows, want %d", k, len(got), len(rows))
		}
		for i, r := range rows {
			if got[i].ProblemSize != r.problem || got[i].MemoryMB != r.mb {
				t.Fatalf("%v row %d = %+v, want %+v (Table 1)", k, i, got[i], r)
			}
		}
	}
	if len(Catalogue()) != 18 {
		t.Fatalf("catalogue rows = %d, want 18", len(Catalogue()))
	}
}

func TestLargest(t *testing.T) {
	if e := Largest(DGEMM); e.MemoryMB != 575 {
		t.Fatalf("largest DGEMM = %+v", e)
	}
	if e := Largest(RandomAccess); e.MemoryMB != 513 {
		t.Fatalf("largest RandomAccess = %+v", e)
	}
}

func TestLayoutForMB(t *testing.T) {
	l, err := LayoutForMB(115)
	if err != nil {
		t.Fatal(err)
	}
	if l.Bytes() != 115<<20 {
		t.Fatalf("bytes = %d, want %d", l.Bytes(), 115<<20)
	}
	if l.Region(memory.RegionCode).Count != codePages ||
		l.Region(memory.RegionStack).Count != stackPages {
		t.Fatal("region budgets wrong")
	}
	if _, err := LayoutForMB(0); err == nil {
		t.Fatal("0MB layout accepted")
	}
}

func TestBuildAllCatalogueEntries(t *testing.T) {
	for _, e := range Catalogue() {
		w, err := Build(e, 1)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if w.Refs <= 0 || w.BaseCompute <= 0 || w.InitCompute <= 0 {
			t.Fatalf("%v: degenerate workload %+v", e, w)
		}
		if w.Layout.Pages() != e.MemoryMB*pagesPerMB {
			t.Fatalf("%v: pages = %d", e, w.Layout.Pages())
		}
	}
}

// TestRefCountsMatchAnalytic verifies the advertised Refs against an
// actual drain of the stream, at reduced scale for speed.
func TestRefCountsMatchAnalytic(t *testing.T) {
	for _, k := range Kernels() {
		e := Scaled(CatalogueFor(k)[0], 16) // ~7 MB
		w := MustBuild(e, 3)
		if got := int64(len(trace.Collect(w.Source(), 0))); got != w.Refs {
			t.Fatalf("%v: drained %d refs, advertised %d", k, got, w.Refs)
		}
	}
}

// TestComputeBudget: the stream's total compute is the calibrated base
// time (within integer-division rounding).
func TestComputeBudget(t *testing.T) {
	for _, k := range Kernels() {
		e := Scaled(CatalogueFor(k)[0], 16)
		w := MustBuild(e, 3)
		src := w.Source()
		var total int64
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			total += int64(r.Compute)
		}
		lo, hi := int64(w.BaseCompute)*95/100, int64(w.BaseCompute)*101/100
		if total < lo || total > hi {
			t.Fatalf("%v: stream compute %d outside [%d,%d] of base %d", k, total, lo, hi, int64(w.BaseCompute))
		}
	}
}

// TestStreamsStayInHeap: every reference lands inside the heap region.
func TestStreamsStayInHeap(t *testing.T) {
	for _, k := range Kernels() {
		e := Scaled(CatalogueFor(k)[0], 16)
		w := MustBuild(e, 3)
		heap := w.Layout.Region(memory.RegionHeap)
		src := w.Source()
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			if r.Page < heap.Start || r.Page >= heap.Start+memory.PageNum(heap.Count) {
				t.Fatalf("%v: ref to page %d outside heap %+v", k, r.Page, heap)
			}
		}
	}
}

// TestWorkingSetCoverage: the standard kernels eventually touch their whole
// heap (the paper's "HPCC programs access their entire address spaces").
func TestWorkingSetCoverage(t *testing.T) {
	for _, k := range Kernels() {
		e := Scaled(CatalogueFor(k)[0], 16)
		w := MustBuild(e, 3)
		heap := w.Layout.Region(memory.RegionHeap)
		touched := map[memory.PageNum]bool{}
		src := w.Source()
		for {
			r, ok := src.Next()
			if !ok {
				break
			}
			touched[r.Page] = true
		}
		frac := float64(len(touched)) / float64(heap.Count)
		// RandomAccess coverage is probabilistic (~1-e^-6) but the
		// verification sweep completes it; others are exact up to the /3
		// and /2 splits losing a page or two.
		if frac < 0.99 {
			t.Fatalf("%v: touched %.3f of heap", k, frac)
		}
	}
}

func TestDeterministicStreams(t *testing.T) {
	e := Scaled(Largest(RandomAccess), 32)
	a := MustBuild(e, 9)
	b := MustBuild(e, 9)
	sa, sb := a.Source(), b.Source()
	for i := 0; ; i++ {
		ra, oka := sa.Next()
		rb, okb := sb.Next()
		if oka != okb {
			t.Fatal("stream lengths differ for same seed")
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("ref %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestBuildWorkingSet(t *testing.T) {
	w, err := BuildWorkingSet(64, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Layout.Bytes() != 64<<20 {
		t.Fatalf("allocation = %d", w.Layout.Bytes())
	}
	heap := w.Layout.Region(memory.RegionHeap)
	maxTouched := memory.PageNum(0)
	src := w.Source()
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if r.Page > maxTouched {
			maxTouched = r.Page
		}
	}
	// Touches stay within the working-set prefix of the heap.
	if got := int64(maxTouched - heap.Start + 1); got > 16*pagesPerMB {
		t.Fatalf("touched %d pages, want <= %d", got, 16*pagesPerMB)
	}
	if _, err := BuildWorkingSet(64, 65, 1); err == nil {
		t.Fatal("working set beyond allocation accepted")
	}
	if _, err := BuildWorkingSet(64, 0, 1); err == nil {
		t.Fatal("zero working set accepted")
	}
}

// TestFigure4LocalityQuadrants verifies the generators land in the paper's
// Figure 4 quadrants, measured with the trace package's whole-trace scores.
func TestFigure4LocalityQuadrants(t *testing.T) {
	spatial := map[Kernel]float64{}
	temporal := map[Kernel]float64{}
	for _, k := range Kernels() {
		e := Scaled(CatalogueFor(k)[0], 16)
		w := MustBuild(e, 5)
		spatial[k], temporal[k] = Locality(w)
	}
	// Spatial: STREAM and DGEMM high; RandomAccess lowest.
	if spatial[STREAM] <= spatial[RandomAccess] || spatial[DGEMM] <= spatial[RandomAccess] {
		t.Fatalf("spatial quadrants wrong: %v", spatial)
	}
	if spatial[RandomAccess] > 0.2 {
		t.Fatalf("RandomAccess spatial = %v, want ≈0", spatial[RandomAccess])
	}
	// Temporal: DGEMM and FFT revisit pages; STREAM and RandomAccess
	// effectively never within a window.
	if temporal[DGEMM] <= temporal[STREAM] || temporal[FFT] <= temporal[RandomAccess] {
		t.Fatalf("temporal quadrants wrong: %v", temporal)
	}
}

func TestScaled(t *testing.T) {
	e := Scaled(Entry{Kernel: DGEMM, ProblemSize: 1000, MemoryMB: 100}, 4)
	if e.MemoryMB != 25 || e.ProblemSize != 250 {
		t.Fatalf("scaled = %+v", e)
	}
	e = Scaled(Entry{Kernel: DGEMM, ProblemSize: 10, MemoryMB: 2}, 100)
	if e.MemoryMB != 1 {
		t.Fatalf("scaled floor = %+v", e)
	}
	e = Scaled(Entry{Kernel: DGEMM, ProblemSize: 10, MemoryMB: 8}, 0)
	if e.MemoryMB != 8 {
		t.Fatalf("scale 0 should clamp to 1: %+v", e)
	}
}

func TestKernelString(t *testing.T) {
	if DGEMM.String() != "DGEMM" || STREAM.String() != "STREAM" ||
		RandomAccess.String() != "RandomAccess" || FFT.String() != "FFT" {
		t.Fatal("kernel names wrong")
	}
	e := Entry{Kernel: STREAM, ProblemSize: 17400, MemoryMB: 575}
	if e.String() != "STREAM/17400 (575MB)" {
		t.Fatalf("entry string = %q", e.String())
	}
}

func TestBaseTimeMonotonicInSize(t *testing.T) {
	for _, k := range Kernels() {
		rows := CatalogueFor(k)
		for i := 1; i < len(rows); i++ {
			a := baseTime(k, rows[i-1].MemoryMB)
			b := baseTime(k, rows[i].MemoryMB)
			if b <= a {
				t.Fatalf("%v base time not monotonic: %v then %v", k, a, b)
			}
		}
	}
}

func TestParseKernel(t *testing.T) {
	for name, want := range map[string]Kernel{
		"DGEMM": DGEMM, "dgemm": DGEMM, "DGemm": DGEMM,
		"STREAM": STREAM, "stream": STREAM, "Stream": STREAM,
		"RandomAccess": RandomAccess, "randomaccess": RandomAccess, "RANDOMACCESS": RandomAccess,
		"ra": RandomAccess, "RA": RandomAccess, "gups": RandomAccess, "GUPS": RandomAccess,
		"FFT": FFT, "fft": FFT, "Fft": FFT,
	} {
		got, err := ParseKernel(name)
		if err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, k := range Kernels() {
		if got, err := ParseKernel(k.String()); err != nil || got != k {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "bogus", "dgemm2", "random access"} {
		if _, err := ParseKernel(name); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
			t.Errorf("ParseKernel(%q): got error %v, want an unknown-kernel error", name, err)
		}
	}
}
