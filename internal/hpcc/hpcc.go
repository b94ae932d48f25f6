// Package hpcc models the four HPC Challenge kernels the paper evaluates —
// DGEMM, STREAM, RandomAccess and FFT — as page-level reference streams with
// calibrated compute densities.
//
// The paper skips HPL, PTRANS and b_eff ("network communication performance
// in parallel programs is not the focus of AMPoM", §5.1) and keeps the four
// kernels that span the spatial × temporal locality quadrants of Figure 4:
//
//	                temporal: low       temporal: high
//	spatial: high   STREAM              DGEMM
//	spatial: low    RandomAccess        FFT
//
// AMPoM only ever observes (a) the stream of faulted page numbers and
// (b) the compute time between touches, so a page-level model with the right
// locality structure and the right compute density reproduces the paper's
// migration behaviour. Compute densities are calibrated against the paper's
// Figure 6 anchors for the Gideon 300's 2 GHz Pentium 4 (see basetime.go).
package hpcc

import (
	"fmt"
	"strings"

	"ampom/internal/memory"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// Kernel identifies one of the modelled HPCC kernels.
type Kernel uint8

// The four kernels of the paper's evaluation.
const (
	DGEMM Kernel = iota
	STREAM
	RandomAccess
	FFT
)

// Kernels lists all modelled kernels in the paper's order.
func Kernels() []Kernel { return []Kernel{DGEMM, STREAM, RandomAccess, FFT} }

// String returns the HPCC kernel name.
func (k Kernel) String() string {
	switch k {
	case DGEMM:
		return "DGEMM"
	case STREAM:
		return "STREAM"
	case RandomAccess:
		return "RandomAccess"
	case FFT:
		return "FFT"
	default:
		return fmt.Sprintf("Kernel(%d)", uint8(k))
	}
}

// ParseKernel resolves a kernel name, ignoring case: DGEMM, STREAM,
// RandomAccess (also "ra" or "gups", the HPCC GUPS benchmark) or FFT.
func ParseKernel(name string) (Kernel, error) {
	switch strings.ToLower(name) {
	case "dgemm":
		return DGEMM, nil
	case "stream":
		return STREAM, nil
	case "randomaccess", "ra", "gups":
		return RandomAccess, nil
	case "fft":
		return FFT, nil
	}
	return 0, fmt.Errorf("unknown kernel %q (want DGEMM, STREAM, RandomAccess or FFT)", name)
}

// Entry is one row of the paper's Table 1: a kernel run at a configured
// problem size occupying a given memory footprint.
type Entry struct {
	Kernel      Kernel
	ProblemSize int64 // the size written in the hpccinf.txt configuration
	MemoryMB    int64 // resulting process footprint in MB
}

// String formats the entry like "DGEMM/17350 (575MB)".
func (e Entry) String() string {
	return fmt.Sprintf("%s/%d (%dMB)", e.Kernel, e.ProblemSize, e.MemoryMB)
}

// Catalogue returns the paper's Table 1 verbatim: the problem sizes and
// memory footprints used in every experiment.
func Catalogue() []Entry {
	return []Entry{
		{DGEMM, 7600, 115}, {DGEMM, 10850, 230}, {DGEMM, 13350, 345},
		{DGEMM, 15450, 460}, {DGEMM, 17350, 575},

		{STREAM, 7750, 115}, {STREAM, 11000, 230}, {STREAM, 13450, 345},
		{STREAM, 15520, 460}, {STREAM, 17400, 575},

		{RandomAccess, 8000, 65}, {RandomAccess, 11000, 129},
		{RandomAccess, 16000, 260}, {RandomAccess, 23000, 513},

		{FFT, 8000, 65}, {FFT, 11000, 129},
		{FFT, 16000, 260}, {FFT, 23000, 513},
	}
}

// CatalogueFor returns the Table 1 rows of one kernel.
func CatalogueFor(k Kernel) []Entry {
	var out []Entry
	for _, e := range Catalogue() {
		if e.Kernel == k {
			out = append(out, e)
		}
	}
	return out
}

// Largest returns the biggest configured run of a kernel — the sizes the
// paper quotes its headline percentages for.
func Largest(k Kernel) Entry {
	rows := CatalogueFor(k)
	return rows[len(rows)-1]
}

// Layout page budget for the non-heap regions. The code and stack of the
// HPCC binary are tiny compared to the data; the three "currently accessed"
// pages migrated at freeze time come one from each region.
const (
	codePages  = 32
	stackPages = 16
	pagesPerMB = 1024 * 1024 / memory.PageSize
)

// LayoutForMB builds the process layout for a footprint of mb megabytes.
func LayoutForMB(mb int64) (memory.Layout, error) {
	if mb < 1 {
		return memory.Layout{}, fmt.Errorf("hpcc: footprint %dMB too small", mb)
	}
	heap := mb*pagesPerMB - codePages - stackPages
	return memory.NewLayout(codePages, heap, stackPages)
}

// Workload is a fully built kernel run: the process layout, the
// post-migration reference stream and its compute calibration.
type Workload struct {
	// Name identifies the run in reports, e.g. "STREAM/17400".
	Name string
	// Entry is the Table 1 row this was built from.
	Entry Entry
	// Layout is the process address-space layout.
	Layout memory.Layout
	// Source produces the post-migration page reference stream. Factories
	// are replayable; each simulation run draws a fresh stream.
	Source trace.Factory
	// Refs is the analytic reference count of the stream.
	Refs int64
	// BaseCompute is the pure CPU time of the post-migration phase (the
	// paper's execution on an unloaded node with all pages local).
	BaseCompute simtime.Duration
	// InitCompute is the pre-migration allocate-and-initialise phase the
	// paper runs before triggering migration ("we initiated migration right
	// after a kernel has finished allocating the required memory").
	InitCompute simtime.Duration
	// WorkingSetPages is the number of distinct heap pages the stream
	// touches (the full heap for the standard kernels; less for the §5.6
	// working-set variant).
	WorkingSetPages int64
}

// Build materialises the workload for a Table 1 entry. The seed
// parameterises the stochastic kernels (RandomAccess table indices, FFT
// scatter permutation) so runs are reproducible.
func Build(e Entry, seed uint64) (*Workload, error) {
	layout, err := LayoutForMB(e.MemoryMB)
	if err != nil {
		return nil, err
	}
	w := &Workload{
		Name:   fmt.Sprintf("%s/%d", e.Kernel, e.ProblemSize),
		Entry:  e,
		Layout: layout,
	}
	heap := layout.Region(memory.RegionHeap)
	base := baseTime(e.Kernel, e.MemoryMB)
	w.BaseCompute = base
	w.InitCompute = initTime(e.MemoryMB)
	w.WorkingSetPages = heap.Count

	switch e.Kernel {
	case DGEMM:
		w.Source, w.Refs = buildDGEMM(heap, heap.Count, base)
	case STREAM:
		w.Source, w.Refs = buildSTREAM(heap, base)
	case RandomAccess:
		w.Source, w.Refs = buildRandomAccess(heap, base, seed)
	case FFT:
		w.Source, w.Refs = buildFFT(heap, base, seed)
	default:
		return nil, fmt.Errorf("hpcc: unknown kernel %v", e.Kernel)
	}
	return w, nil
}

// MustBuild is Build panicking on error, for fixtures and examples.
func MustBuild(e Entry, seed uint64) *Workload {
	w, err := Build(e, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// BuildWorkingSet builds the §5.6 experiment's modified DGEMM: the process
// allocates allocMB of memory but its matrices — and therefore its entire
// post-migration working set — occupy only wsMB of it.
func BuildWorkingSet(allocMB, wsMB int64, seed uint64) (*Workload, error) {
	if wsMB <= 0 || wsMB > allocMB {
		return nil, fmt.Errorf("hpcc: working set %dMB outside allocation %dMB", wsMB, allocMB)
	}
	layout, err := LayoutForMB(allocMB)
	if err != nil {
		return nil, err
	}
	heap := layout.Region(memory.RegionHeap)
	wsPages := wsMB * pagesPerMB
	if wsPages > heap.Count {
		wsPages = heap.Count
	}
	base := baseTime(DGEMM, wsMB)
	src, refs := buildDGEMM(heap, wsPages, base)
	return &Workload{
		Name:            fmt.Sprintf("DGEMM-ws/%d-of-%dMB", wsMB, allocMB),
		Entry:           Entry{Kernel: DGEMM, ProblemSize: wsMB, MemoryMB: allocMB},
		Layout:          layout,
		Source:          src,
		Refs:            refs,
		BaseCompute:     base,
		InitCompute:     initTime(allocMB),
		WorkingSetPages: wsPages,
	}, nil
}

// Locality measures a workload's page-level spatial and temporal locality,
// the quantities behind the paper's Figure 4 quadrants. Spatial is the
// sliding Eq. 1 score over the whole reference stream (l = 20, dmax = 4);
// temporal is the fraction of references re-touching a page seen within the
// previous 0.4×heap references — wide enough to catch DGEMM's panel reuse
// and FFT's blocked-stage reuse, narrow enough that STREAM's whole-array
// revisits and RandomAccess's chance collisions score low.
func Locality(w *Workload) (spatial, temporal float64) {
	refs := trace.Collect(w.Source(), 0)
	ps := trace.Pages(refs)
	heap := w.Layout.Region(memory.RegionHeap)
	spatial = trace.SlidingSpatialScore(ps, 20, 4)
	temporal = trace.TemporalScore(ps, int(heap.Count*2/5))
	return spatial, temporal
}

// Scaled returns a copy of e shrunk by an integer divisor — used by unit
// tests and quick examples to run the same shapes at laptop scale. The
// divisor must not reduce the footprint below 1 MB.
func Scaled(e Entry, div int64) Entry {
	if div < 1 {
		div = 1
	}
	mb := e.MemoryMB / div
	if mb < 1 {
		mb = 1
	}
	return Entry{Kernel: e.Kernel, ProblemSize: e.ProblemSize / div, MemoryMB: mb}
}
