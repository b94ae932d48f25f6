package hpcc

import (
	"runtime"
	"testing"
)

// BenchmarkBuild measures building the paper-scale workloads whose build
// cost the paper-migration benchmark's set-up pays: the largest DGEMM (the
// 575 MB freeze anchor) and the largest FFT. Run it with -benchmem: the
// bytes and allocations per build are the figures to watch.
func BenchmarkBuild(b *testing.B) {
	for _, k := range []Kernel{DGEMM, FFT} {
		e := Largest(k)
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build(e, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// buildCost returns the bytes and allocations of one Build of e, averaged
// over several builds and rounded down, as testing.AllocsPerRun does.
func buildCost(t *testing.T, e Entry) (bytes, allocs uint64) {
	const runs = 20
	Build(e, 1) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := Build(e, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
}

// TestBuildCostIndependentOfSize: a workload's program has a fixed number
// of nodes whatever its footprint (FFT's passes are one Tile each, not one
// subtree per block), so building the smallest and the largest Table 1
// entry of a kernel costs the same allocations and, up to the name string,
// the same bytes. The anchor DGEMM build, which perfbench's paper-migration
// set-up times, stays within what the closure factories it replaced cost:
// 13649 B in 328 allocations.
func TestBuildCostIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	for _, k := range Kernels() {
		rows := CatalogueFor(k)
		smallB, smallN := buildCost(t, rows[0])
		largeB, largeN := buildCost(t, rows[len(rows)-1])
		if smallN != largeN || max(smallB, largeB)-min(smallB, largeB) > 64 {
			t.Errorf("%v: building %v costs %d B in %d allocs, %v %d B in %d allocs",
				k, rows[0], smallB, smallN, rows[len(rows)-1], largeB, largeN)
		}
	}
	if b, n := buildCost(t, Largest(DGEMM)); b > 13649 || n > 328 {
		t.Errorf("anchor DGEMM build costs %d B in %d allocs, want at most 13649 B in 328", b, n)
	}
}
