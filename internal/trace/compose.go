package trace

import (
	"ampom/internal/memory"
	"ampom/internal/prng"
	"ampom/internal/simtime"
)

// This file provides a small combinator library for describing page-level
// workloads: sequential sweeps, strided sweeps, random access, round-robin
// interleavings and concatenations. Workload models (e.g. the HPCC kernels)
// are composed from these primitives.
//
// Because sources are stateful one-shot iterators, anything that needs to
// be replayed (Repeat) works with Factory values — functions producing a
// fresh Source per iteration.

// Factory produces a fresh Source. Factories make composite workloads
// replayable even though an individual Source is consumed by iteration.
type Factory func() Source

// Sequential returns a factory sweeping pages [start, start+count) in
// ascending order, charging compute per page, with the given write flag.
func Sequential(start memory.PageNum, count int64, compute simtime.Duration, write bool) Factory {
	return Strided(start, count, 1, compute, write)
}

// Strided returns a factory touching count pages starting at start with the
// given page stride (which may be negative for descending sweeps).
func Strided(start memory.PageNum, count int64, stride int64, compute simtime.Duration, write bool) Factory {
	return func() Source {
		i := int64(0)
		return FuncSource(func() (Ref, bool) {
			if i >= count {
				return Ref{}, false
			}
			p := start + memory.PageNum(i*stride)
			i++
			return Ref{Page: p, Compute: compute, Write: write}, true
		})
	}
}

// RandomUniform returns a factory emitting count references uniformly
// distributed over pages [start, start+span), using its own deterministic
// generator seeded with seed.
func RandomUniform(start memory.PageNum, span int64, count int64, compute simtime.Duration, write bool, seed uint64) Factory {
	return func() Source {
		src := prng.New(seed)
		i := int64(0)
		return FuncSource(func() (Ref, bool) {
			if i >= count {
				return Ref{}, false
			}
			i++
			p := start + memory.PageNum(src.Uint64n(uint64(span)))
			return Ref{Page: p, Compute: compute, Write: write}, true
		})
	}
}

// Concat returns a factory running each sub-factory to exhaustion in order.
func Concat(parts ...Factory) Factory {
	return func() Source {
		var cur Source
		idx := 0
		return FuncSource(func() (Ref, bool) {
			for {
				if cur == nil {
					if idx >= len(parts) {
						return Ref{}, false
					}
					cur = parts[idx]()
					idx++
				}
				if r, ok := cur.Next(); ok {
					return r, true
				}
				cur = nil
			}
		})
	}
}

// Interleave returns a factory drawing one reference from each sub-source
// in round-robin order until all are exhausted. Lock-step array sweeps
// (STREAM's a[i] = b[i] + s·c[i]) are interleavings of sequential sweeps.
func Interleave(parts ...Factory) Factory {
	return func() Source {
		srcs := make([]Source, len(parts))
		for i, f := range parts {
			srcs[i] = f()
		}
		alive := len(srcs)
		i := 0
		return FuncSource(func() (Ref, bool) {
			for alive > 0 {
				s := srcs[i%len(srcs)]
				i++
				if s == nil {
					continue
				}
				if r, ok := s.Next(); ok {
					return r, true
				}
				srcs[(i-1)%len(srcs)] = nil
				alive--
			}
			return Ref{}, false
		})
	}
}

// Repeat returns a factory running the sub-factory n times back to back.
func Repeat(n int, part Factory) Factory {
	parts := make([]Factory, n)
	for i := range parts {
		parts[i] = part
	}
	return Concat(parts...)
}

// BlockPermuted returns a factory touching every page of
// [start, start+count) exactly once, visiting fixed-size blocks in a
// deterministic pseudo-random order but pages within a block sequentially.
// This is the page-level shape of cache-blocked permutations such as an
// FFT's bit-reversal transpose: globally scattered, locally sequential.
// With blockPages 1 it is a page-level random permutation.
func BlockPermuted(start memory.PageNum, count, blockPages int64, compute simtime.Duration, write bool, seed uint64) Factory {
	if blockPages < 1 {
		blockPages = 1
	}
	nBlocks := (count + blockPages - 1) / blockPages
	return func() Source {
		src := prng.New(seed)
		order := src.Perm(int(nBlocks))
		bi, off := 0, int64(0)
		return FuncSource(func() (Ref, bool) {
			for bi < len(order) {
				base := int64(order[bi]) * blockPages
				if off >= blockPages || base+off >= count {
					bi++
					off = 0
					continue
				}
				p := start + memory.PageNum(base+off)
				off++
				return Ref{Page: p, Compute: compute, Write: write}, true
			}
			return Ref{}, false
		})
	}
}
