package trace

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ampom/internal/memory"
	"ampom/internal/prng"
	"ampom/internal/simtime"
)

// The oracle is a frozen copy of the closure combinators programs replaced:
// every factory call opens fresh closure sources, and composites open their
// parts' sources as they go. A cursor walking a program must yield exactly
// the stream the matching oracle composition yields; FuzzCompose checks it
// on random nested programs. Keep the oracle as it is: it pins the streams,
// not the implementation.

type oracleSource interface{ Next() (Ref, bool) }

type oracleFunc func() (Ref, bool)

func (f oracleFunc) Next() (Ref, bool) { return f() }

type oracleFactory func() oracleSource

func oracleStrided(start memory.PageNum, count int64, stride int64, compute simtime.Duration, write bool) oracleFactory {
	return func() oracleSource {
		i := int64(0)
		return oracleFunc(func() (Ref, bool) {
			if i >= count {
				return Ref{}, false
			}
			p := start + memory.PageNum(i*stride)
			i++
			return Ref{Page: p, Compute: compute, Write: write}, true
		})
	}
}

func oracleRandomUniform(start memory.PageNum, span int64, count int64, compute simtime.Duration, write bool, seed uint64) oracleFactory {
	return func() oracleSource {
		src := prng.New(seed)
		i := int64(0)
		return oracleFunc(func() (Ref, bool) {
			if i >= count {
				return Ref{}, false
			}
			i++
			p := start + memory.PageNum(src.Uint64n(uint64(span)))
			return Ref{Page: p, Compute: compute, Write: write}, true
		})
	}
}

func oracleConcat(parts ...oracleFactory) oracleFactory {
	return func() oracleSource {
		var cur oracleSource
		idx := 0
		return oracleFunc(func() (Ref, bool) {
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

func oracleInterleave(parts ...oracleFactory) oracleFactory {
	return func() oracleSource {
		srcs := make([]oracleSource, len(parts))
		for i, f := range parts {
			srcs[i] = f()
		}
		alive := len(srcs)
		i := 0
		return oracleFunc(func() (Ref, bool) {
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

func oracleRepeat(n int, part oracleFactory) oracleFactory {
	parts := make([]oracleFactory, n)
	for i := range parts {
		parts[i] = part
	}
	return oracleConcat(parts...)
}

func oracleBlockPermuted(start memory.PageNum, count, blockPages int64, compute simtime.Duration, write bool, seed uint64) oracleFactory {
	if blockPages < 1 {
		blockPages = 1
	}
	nBlocks := (count + blockPages - 1) / blockPages
	return func() oracleSource {
		src := prng.New(seed)
		order := src.Perm(int(nBlocks))
		bi, off := 0, int64(0)
		return oracleFunc(func() (Ref, bool) {
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

// oracleLimit truncates the part to at most n references.
func oracleLimit(n int64, part oracleFactory) oracleFactory {
	return func() oracleSource {
		src := part()
		emitted := int64(0)
		return oracleFunc(func() (Ref, bool) {
			if emitted >= n {
				return Ref{}, false
			}
			r, ok := src.Next()
			if !ok {
				return Ref{}, false
			}
			emitted++
			return r, true
		})
	}
}

// oracleCount drains a fresh source from the factory and returns its
// length.
func oracleCount(f oracleFactory) int64 {
	src := f()
	var n int64
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

// oracleCollect drains a fresh source from f, up to max references.
func oracleCollect(f oracleFactory, max int) []Ref {
	src := f()
	var out []Ref
	for len(out) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func drain(p Program) []Ref { return Collect(p.Open(), 0) }

// collectN reads up to n references from c; unlike Collect, n == 0 reads
// none.
func collectN(c *Cursor, n int) []Ref {
	if n <= 0 {
		return nil
	}
	return Collect(c, n)
}

func TestSequential(t *testing.T) {
	refs := drain(Sequential(10, 5, simtime.Microsecond, true).Program())
	if len(refs) != 5 {
		t.Fatalf("len = %d", len(refs))
	}
	for i, r := range refs {
		if r.Page != memory.PageNum(10+i) || !r.Write || r.Compute != simtime.Microsecond {
			t.Fatalf("ref %d = %+v", i, r)
		}
	}
}

func TestStridedDescending(t *testing.T) {
	refs := drain(Strided(10, 3, -2, 0, false).Program())
	want := []memory.PageNum{10, 8, 6}
	for i, r := range refs {
		if r.Page != want[i] {
			t.Fatalf("refs = %v", Pages(refs))
		}
	}
}

// TestProgramReplayable: a program replays in full from every cursor
// opened on it and from a cursor reset on it part-way through.
func TestProgramReplayable(t *testing.T) {
	p := Sequential(0, 10, 0, false).Program()
	a, b := drain(p), drain(p)
	c := p.Open()
	c.Next()
	c.Next()
	c.Reset(p)
	if len(a) != 10 || len(b) != 10 || len(Collect(c, 0)) != 10 {
		t.Fatal("program not replayable")
	}
}

func TestRandomUniformDeterministicAndInRange(t *testing.T) {
	p := RandomUniform(100, 50, 200, 0, true, 7).Program()
	a, b := drain(p), drain(p)
	if len(a) != 200 {
		t.Fatalf("len = %d", len(a))
	}
	for i := range a {
		if a[i].Page != b[i].Page {
			t.Fatal("same seed produced different streams")
		}
		if a[i].Page < 100 || a[i].Page >= 150 {
			t.Fatalf("page %d out of range", a[i].Page)
		}
	}
	c := drain(RandomUniform(100, 50, 200, 0, true, 8).Program())
	diff := false
	for i := range a {
		if a[i].Page != c[i].Page {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestConcat(t *testing.T) {
	var b Builder
	p := b.Program(b.Concat(Sequential(0, 3, 0, false), Sequential(10, 2, 0, false)))
	got := Pages(drain(p))
	want := []memory.PageNum{0, 1, 2, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concat = %v", got)
		}
	}
	var e Builder
	if len(drain(e.Program(e.Concat()))) != 0 {
		t.Fatal("empty concat should be empty")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	var b Builder
	p := b.Program(b.Interleave(Sequential(0, 3, 0, false), Sequential(100, 3, 0, false)))
	got := Pages(drain(p))
	want := []memory.PageNum{0, 100, 1, 101, 2, 102}
	if len(got) != len(want) {
		t.Fatalf("interleave = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleave = %v, want %v", got, want)
		}
	}
}

func TestInterleaveUneven(t *testing.T) {
	var b Builder
	p := b.Program(b.Interleave(Sequential(0, 5, 0, false), Sequential(100, 2, 0, false)))
	got := Pages(drain(p))
	if len(got) != 7 {
		t.Fatalf("interleave dropped refs: %v", got)
	}
	// After the short stream drains, the long one continues alone.
	if got[len(got)-1] != 4 {
		t.Fatalf("tail = %v", got)
	}
}

// TestRepeat: a Repeat node and Program.Repeat run their part back to
// back, and repeating a program leaves the program itself unchanged.
func TestRepeat(t *testing.T) {
	var b Builder
	p := b.Program(b.Repeat(3, Sequential(5, 2, 0, false)))
	var cb Builder
	concat := cb.Program(cb.Concat(Sequential(5, 1, 0, false), Sequential(6, 1, 0, false)))
	want := []memory.PageNum{5, 6, 5, 6, 5, 6}
	for _, p := range []Program{p, Sequential(5, 2, 0, false).Program().Repeat(3), concat.Repeat(3)} {
		if got := Pages(drain(p)); !slices.Equal(got, want) {
			t.Fatalf("repeat = %v", got)
		}
	}
	if got := Pages(drain(concat)); !slices.Equal(got, want[:2]) {
		t.Fatalf("repeating a program changed it: %v", got)
	}
}

// TestTile: a tile shifts its body's pages to the tile and clips its
// sweeps to the tile's length, including the shorter last tile.
func TestTile(t *testing.T) {
	var b Builder
	p := b.Program(b.Tile(10, 4, b.Concat(
		Sequential(0, 4, 0, false),
		Sequential(100, 8, 0, true),
	)))
	got := Pages(drain(p))
	want := []memory.PageNum{
		0, 1, 2, 3, 100, 101, 102, 103,
		4, 5, 6, 7, 104, 105, 106, 107,
		8, 9, 108, 109,
	}
	if len(got) != len(want) {
		t.Fatalf("tile = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tile = %v, want %v", got, want)
		}
	}
}

// TestPush: a pushed reference comes next, and the stream then resumes
// where it was, even from inside a random leaf or after the end.
func TestPush(t *testing.T) {
	var b Builder
	p := b.Program(b.Concat(Sequential(0, 3, 0, false), RandomUniform(50, 10, 3, 0, false, 4)))
	want := drain(p)
	extra := Ref{Page: 999, Compute: 7, Write: true}
	for at := 0; at <= len(want); at++ {
		c := p.Open()
		got := collectN(c, at)
		c.Push(extra)
		got = append(got, Collect(c, 0)...)
		if len(got) != len(want)+1 || got[at] != extra {
			t.Fatalf("push after %d refs: got %v", at, got)
		}
		got = append(got[:at], got[at+1:]...)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("push after %d refs: stream resumed as %v, want %v", at, got, want)
			}
		}
	}
}

// TestCursorResetAllocFree: once a cursor has walked a program, a reset
// and a full walk of it allocate nothing, whatever its leaves and
// composites.
func TestCursorResetAllocFree(t *testing.T) {
	var b Builder
	p := b.Program(b.Concat(
		BlockPermuted(0, 4096, 16, 0, false, 3),
		b.Tile(300, 16, b.Repeat(2, b.Interleave(
			Sequential(0, 16, 0, false),
			b.Concat(RandomUniform(1000, 16, 5, 0, true, 9), Sequential(2000, 16, 0, true)),
		))),
	))
	c := p.Open()
	Collect(c, 0)
	allocs := testing.AllocsPerRun(20, func() {
		c.Reset(p)
		for {
			if _, ok := c.Next(); !ok {
				return
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per reset and walk, want 0", allocs)
	}
}

// coversOnce reports whether a block permutation of n pages from page 10
// touches each page exactly once and nothing else.
func coversOnce(seed uint64, n, block int64) bool {
	refs := drain(BlockPermuted(10, n, block, 0, false, seed).Program())
	if int64(len(refs)) != n {
		return false
	}
	seen := make(map[memory.PageNum]bool)
	for _, r := range refs {
		if r.Page < 10 || r.Page >= memory.PageNum(10+n) || seen[r.Page] {
			return false
		}
		seen[r.Page] = true
	}
	return true
}

// TestPermutedCoversExactlyOnce checks the page-level permutation: one-page
// blocks.
func TestPermutedCoversExactlyOnce(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		return coversOnce(seed, int64(nRaw%100)+1, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPermutedCoversExactlyOnce(t *testing.T) {
	f := func(seed uint64, nRaw, bRaw uint8) bool {
		return coversOnce(seed, int64(nRaw%200)+1, int64(bRaw%16)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPermutedLocallySequential(t *testing.T) {
	const block = 8
	refs := drain(BlockPermuted(0, 64, block, 0, false, 3).Program())
	for i := 0; i < len(refs); i += block {
		for j := 1; j < block; j++ {
			if refs[i+j].Page != refs[i].Page+memory.PageNum(j) {
				t.Fatalf("block starting at ref %d not sequential: %v", i, Pages(refs[i:i+block]))
			}
		}
	}
}

func TestLimit(t *testing.T) {
	f := oracleLimit(3, oracleStrided(0, 100, 1, 0, false))
	if got := oracleCount(f); got != 3 {
		t.Fatalf("limit = %d", got)
	}
	f = oracleLimit(10, oracleStrided(0, 2, 1, 0, false))
	if got := oracleCount(f); got != 2 {
		t.Fatalf("limit beyond length = %d", got)
	}
}

func TestCount(t *testing.T) {
	if got := oracleCount(oracleStrided(0, 42, 1, 0, false)); got != 42 {
		t.Fatalf("count = %d", got)
	}
}

func TestCollectMax(t *testing.T) {
	refs := Collect(Sequential(0, 100, 0, false).Program().Open(), 10)
	if len(refs) != 10 {
		t.Fatalf("collect max = %d", len(refs))
	}
}

// TestCheckPages: a leaf that references a page outside the footprint in
// its first tile fails the check, which names the first such page; leaves
// inside it pass, clipped as their Tiles clip them, and so does a leaf
// only a later tile shifts out, which the walker catches instead.
func TestCheckPages(t *testing.T) {
	const pages = 4
	var b Builder
	tiled := b.Program(b.Tile(16, 2, Sequential(0, 3, 0, false)))
	var b2 Builder
	shifted := b2.Program(b2.Tile(8, 4, Sequential(0, 4, 0, false)))
	var b3 Builder
	nested := b3.Program(b3.Repeat(2, b3.Concat(Sequential(0, 4, 0, false), b3.Interleave(
		RandomUniform(0, 4, 9, 0, false, 1), BlockPermuted(1, 9, 2, 0, false, 1)))))
	for _, tc := range []struct {
		name string
		p    Program
		want string // the page the error names, "" when the check passes
	}{
		{"empty", Program{}, ""},
		{"sweep", Sequential(0, 4, 0, false).Program(), ""},
		{"descending sweep", Strided(3, 4, -1, 0, false).Program(), ""},
		{"no references", Sequential(9, 0, 0, false).Program(), ""},
		{"random span", RandomUniform(1, 3, 99, 0, false, 1).Program(), ""},
		{"clipped by its tile", tiled, ""},
		{"shifted out by a later tile", shifted, ""},
		{"sweep past the end", Sequential(0, 5, 0, false).Program(), "page 4 of 4"},
		{"stride past the end", Strided(1, 3, 2, 0, false).Program(), "page 5 of 4"},
		{"stride below page 0", Strided(3, 3, -2, 0, false).Program(), "page -1 of 4"},
		{"start past the end", Sequential(4, 1, 0, false).Program(), "page 4 of 4"},
		{"random span past the end", RandomUniform(2, 3, 1, 0, false, 1).Program(), "page 4 of 4"},
		{"block order of 2^62 pages", BlockPermuted(0, 1<<62, 1, 0, false, 1).Program(), "page 4 of 4"},
		{"inside composites", nested, "page 4 of 4"},
	} {
		err := tc.p.CheckPages(pages)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: CheckPages = %v, want %q", tc.name, err, tc.want)
		}
	}
}
