package hpcc

import (
	"ampom/internal/memory"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// This file builds the page-level reference streams of the four kernels.
// Each builder returns the stream's program plus the analytic reference
// count; compute time per reference is the kernel's calibrated base time
// spread over its references, so the stream's total compute equals
// baseTime() exactly (up to rounding). Each builder sizes its program's
// node slice up front, so building a workload allocates it once.

// perRef divides a compute budget over n references.
func perRef(total simtime.Duration, n int64) simtime.Duration {
	if n <= 0 {
		return 0
	}
	return total / simtime.Duration(n)
}

// dgemmPasses is the number of block-column passes of the modelled blocked
// matrix multiply. Each pass re-reads all of A and first-touches one chunk
// of B and C, giving DGEMM its high temporal locality and its slow,
// compute-bound fault stream after the first pass.
const dgemmPasses = 64

// buildDGEMM models C = A·B with block-column panels. The heap holds the
// three matrices contiguously: A | B | C, each third pages. Each pass j
// re-reads all of A and first-touches one fresh column chunk of B and C.
// The fresh chunk is touched as a burst at panel-copy speed — real blocked
// DGEMMs copy each fresh panel into contiguous buffers before computing on
// it — so fresh-page demand clusters, and compute happens on resident
// panels between bursts. wsPages caps the touched heap pages for the §5.6
// working-set variant (pass heap.Count for the standard kernel).
func buildDGEMM(heap memory.Region, wsPages int64, base simtime.Duration) (trace.Program, int64) {
	third := wsPages / 3
	if third < 1 {
		third = 1
	}
	passes := int64(dgemmPasses)
	if passes > third {
		passes = third // degenerate tiny runs: one chunk per page
	}
	chunk := third / passes

	aStart := heap.Start
	bStart := heap.Start + memory.PageNum(third)
	cStart := heap.Start + memory.PageNum(2*third)

	refs := passes*third + 2*third // A re-read per pass + B, C once each
	cp := perRef(base, refs)

	var b trace.Builder
	b.Grow(int(4 * passes)) // per pass: its Concat and three sweeps
	var parts [dgemmPasses]trace.Node
	for j := int64(0); j < passes; j++ {
		bc := chunk
		if j == passes-1 {
			bc = third - chunk*(passes-1) // last chunk absorbs remainder
		}
		// Panel copies touch the fresh B and C chunks at memory speed (1 %
		// of the pass compute); the A re-read carries the block products.
		passCompute := cp * simtime.Duration(third+2*bc)
		parts[j] = b.Concat(
			trace.Sequential(bStart+memory.PageNum(j*chunk), bc, perRef(passCompute/100, bc), false),
			trace.Sequential(cStart+memory.PageNum(j*chunk), bc, perRef(passCompute/100, bc), true),
			trace.Sequential(aStart, third, perRef(passCompute*98/100, third), false),
		)
	}
	return b.Program(b.Concat(parts[:passes]...)), refs
}

// streamIterations is the number of whole benchmark iterations modelled.
// Real STREAM runs 10; we model 4 and fold the full compute budget into
// them — only the first pass generates faults, so the migration behaviour
// is unchanged while simulations stay fast.
const streamIterations = 4

// buildSTREAM models the four STREAM operations over three arrays a|b|c:
// Copy c←a, Scale b←c, Add c←a+b, Triad a←b+s·c. Lock-step array sweeps
// become round-robin interleavings of sequential page streams, which is
// exactly the stride-2/stride-3 fault pattern AMPoM's window sees.
func buildSTREAM(heap memory.Region, base simtime.Duration) (trace.Program, int64) {
	third := heap.Count / 3
	if third < 1 {
		third = 1
	}
	a := heap.Start
	b := heap.Start + memory.PageNum(third)
	c := heap.Start + memory.PageNum(2*third)

	refsPerIter := int64(2*third + 2*third + 3*third + 3*third)
	refs := refsPerIter * streamIterations
	cp := perRef(base, refs)

	var bld trace.Builder
	bld.Grow(15) // the iteration's Concat, four Interleaves and ten sweeps
	iteration := bld.Concat(
		// Copy: c[i] = a[i]
		bld.Interleave(
			trace.Sequential(a, third, cp, false),
			trace.Sequential(c, third, cp, true),
		),
		// Scale: b[i] = s·c[i]
		bld.Interleave(
			trace.Sequential(c, third, cp, false),
			trace.Sequential(b, third, cp, true),
		),
		// Add: c[i] = a[i] + b[i]
		bld.Interleave(
			trace.Sequential(a, third, cp, false),
			trace.Sequential(b, third, cp, false),
			trace.Sequential(c, third, cp, true),
		),
		// Triad: a[i] = b[i] + s·c[i]
		bld.Interleave(
			trace.Sequential(b, third, cp, false),
			trace.Sequential(c, third, cp, false),
			trace.Sequential(a, third, cp, true),
		),
	)
	return bld.Program(bld.Repeat(streamIterations, iteration)), refs
}

// touchesPerPage is the modelled RandomAccess fetch-in density: random
// page touches per table page during the phase that drags the table to the
// migrant. Real GUPS performs 4 updates per table *word* (≈2048 per page);
// page coverage is therefore complete within the first ~1 % of updates
// (coupon collector), after which the table is local and the remaining
// ~99 % of updates run fault-free. We model the fetch-in with 6 touches
// per page (99.8 % coverage) carrying the corresponding sliver of compute,
// and fold the fault-free bulk of the updates into a resident compute
// segment — the structure that gives the paper its "network time adds to
// compute time" RandomAccess behaviour.
const touchesPerPage = 6

// buildRandomAccess models GUPS: the fetch-in slice of the random update
// stream, the fault-free bulk of the updates, then the harness's
// sequential verification sweep.
func buildRandomAccess(heap memory.Region, base simtime.Duration, seed uint64) (trace.Program, int64) {
	touches := heap.Count * touchesPerPage
	sweep := heap.Count
	refs := touches + 1 + sweep

	// Real update compute is ~0.4 µs each; the fetch-in touches carry ~1 %
	// of the budget, the resident bulk 84 %, the verification sweep 15 %.
	cpT := perRef(base*1/100, touches)
	bulk := base * 84 / 100
	cpS := perRef(base*15/100, sweep)
	var b trace.Builder
	b.Grow(3)
	return b.Program(b.Concat(
		trace.RandomUniform(heap.Start, heap.Count, touches, cpT, true, seed^0x9a0d),
		// Fault-free bulk of the updates: the table is (almost) fully
		// local, so this is pure compute pinned on a resident page.
		trace.Sequential(heap.Start, 1, bulk, true),
		trace.Sequential(heap.Start, sweep, cpS, false),
	)), refs
}

// fftPasses is the number of modelled butterfly pass groups.
const fftPasses = 4

// fftBlock is the page-level cache block of the modelled FFT: the
// bit-reversal transpose and the butterfly stages are blocked, so accesses
// are globally strided but locally sequential, and each block is re-read
// within its fused stage group — the short-distance page reuse that puts
// FFT in Figure 4's high-temporal-locality quadrant.
const fftBlock = 16

// fftStageIters is how many fused stage iterations touch a block within one
// pass group.
const fftStageIters = 2

// buildFFT models a large out-of-place FFT over data D and work W halves of
// the heap: a blocked bit-reversal scatter (the lower spatial locality
// phase), then fftPasses blocked sweeps alternating the D→W and W→D
// directions, each block run through fftStageIters fused stages. Each pass
// is one Tile over the half's fftBlock-page blocks, so the program has a
// fixed handful of nodes however large the heap.
func buildFFT(heap memory.Region, base simtime.Duration, seed uint64) (trace.Program, int64) {
	half := heap.Count / 2
	if half < 1 {
		half = 1
	}
	d := heap.Start
	w := heap.Start + memory.PageNum(half)

	// Refs: scatter (half) + passes × stageIters × (src block + dst block).
	refs := half + int64(fftPasses)*fftStageIters*2*half
	// The bit-reversal scatter is data movement, not flops: it carries 3 %
	// of the compute budget; the butterfly passes carry the rest.
	cpScatter := perRef(base*3/100, half)
	cpPass := perRef(base*97/100, refs-half)

	var b trace.Builder
	b.Grow(1 + fftPasses*5) // the scatter, and per pass a Tile, its Repeat, a Concat and two sweeps
	parts := [1 + fftPasses]trace.Node{
		trace.BlockPermuted(d, half, fftBlock, cpScatter, true, seed^0x0ff7),
	}
	for p := 0; p < fftPasses; p++ {
		src, dst := d, w
		if p%2 == 1 {
			src, dst = w, d
		}
		// Each tile shifts the block sweeps to its block; the last tile,
		// shorter when fftBlock does not divide half, clips them to it.
		parts[1+p] = b.Tile(half, fftBlock, b.Repeat(fftStageIters, b.Concat(
			trace.Sequential(src, fftBlock, cpPass, false),
			trace.Sequential(dst, fftBlock, cpPass, true),
		)))
	}
	return b.Program(b.Concat(parts[:]...)), refs
}
