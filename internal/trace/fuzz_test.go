package trace

import (
	"testing"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// FuzzCompose builds workload compositions from arbitrary parameters —
// strided and random primitives combined through Concat, Interleave, Repeat
// and Limit — and checks the combinator contracts every workload model
// relies on: factories replay identically, Count agrees with a full drain,
// exhausted sources stay exhausted, Limit truncates exactly, and permuted
// sweeps cover each page exactly once. Run with `go test -fuzz FuzzCompose`;
// `make ci` gives it a 10 s smoke.
func FuzzCompose(f *testing.F) {
	f.Add(int64(0), uint16(16), int8(1), uint16(8), uint64(1), uint16(10))
	f.Add(int64(100), uint16(64), int8(-3), uint16(32), uint64(7), uint16(5))
	f.Add(int64(5), uint16(1), int8(0), uint16(1), uint64(42), uint16(0))
	f.Add(int64(1<<20), uint16(128), int8(16), uint16(100), uint64(99), uint16(1000))

	f.Fuzz(func(t *testing.T, start int64, count16 uint16, stride int8, span16 uint16, seed uint64, limit16 uint16) {
		// Clamp to simulator-plausible shapes; the interesting surface is
		// the combinator algebra, not giant allocations.
		count := int64(count16%512) + 1
		span := int64(span16%512) + 1
		limit := int64(limit16 % 1024)
		st := memory.PageNum(start % (1 << 40))
		compute := simtime.Microsecond

		parts := []Factory{
			Strided(st, count, int64(stride), compute, false),
			RandomUniform(st, span, count, compute, true, seed),
			BlockPermuted(st, count, 1, compute, false, seed),
			BlockPermuted(st, count, 1+int64(span%8), compute, false, seed),
		}
		composite := Concat(
			Interleave(parts...),
			Repeat(2, Sequential(st, count, compute, false)),
			Limit(limit, RandomUniform(st, span, count, compute, false, seed^1)),
		)

		// Replay determinism: two sources from one factory emit identical
		// streams.
		a := Collect(composite(), 0)
		b := Collect(composite(), 0)
		if len(a) != len(b) {
			t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("replay diverges at ref %d: %+v vs %+v", i, a[i], b[i])
			}
		}

		// Count agrees with a full drain, and the total adds up: the four
		// interleaved parts emit 4×count, the repeat 2×count, the limited
		// tail min(limit, count).
		if got := Count(composite); got != int64(len(a)) {
			t.Fatalf("Count %d != drained %d", got, len(a))
		}
		tail := limit
		if count < tail {
			tail = count
		}
		if want := 4*count + 2*count + tail; int64(len(a)) != want {
			t.Fatalf("composite emitted %d refs, want %d", len(a), want)
		}

		// Exhausted sources stay exhausted.
		src := composite()
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
		for i := 0; i < 3; i++ {
			if _, ok := src.Next(); ok {
				t.Fatal("source emitted after exhaustion")
			}
		}

		// A page-level permutation covers [st, st+count) exactly once.
		seen := make(map[memory.PageNum]int)
		for _, r := range Collect(BlockPermuted(st, count, 1, compute, false, seed)(), 0) {
			seen[r.Page]++
		}
		if int64(len(seen)) != count {
			t.Fatalf("permutation covered %d of %d pages", len(seen), count)
		}
		for pg, n := range seen {
			if n != 1 {
				t.Fatalf("page %d visited %d times", pg, n)
			}
			if pg < st || pg >= st+memory.PageNum(count) {
				t.Fatalf("page %d outside [%d, %d)", pg, st, st+memory.PageNum(count))
			}
		}
	})
}
