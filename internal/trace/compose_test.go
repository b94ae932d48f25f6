package trace

import (
	"testing"
	"testing/quick"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

func drain(f Factory) []Ref { return Collect(f(), 0) }

// Limit returns a factory truncating the sub-factory to at most n
// references.
func Limit(n int64, part Factory) Factory {
	return func() Source {
		src := part()
		emitted := int64(0)
		return FuncSource(func() (Ref, bool) {
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

// Count drains a fresh source from the factory and returns its length.
func Count(f Factory) int64 {
	src := f()
	var n int64
	for {
		if _, ok := src.Next(); !ok {
			return n
		}
		n++
	}
}

func TestSequential(t *testing.T) {
	refs := drain(Sequential(10, 5, simtime.Microsecond, true))
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
	refs := drain(Strided(10, 3, -2, 0, false))
	want := []memory.PageNum{10, 8, 6}
	for i, r := range refs {
		if r.Page != want[i] {
			t.Fatalf("refs = %v", Pages(refs))
		}
	}
}

func TestFactoryReplayable(t *testing.T) {
	f := Sequential(0, 10, 0, false)
	a, b := drain(f), drain(f)
	if len(a) != 10 || len(b) != 10 {
		t.Fatal("factory not replayable")
	}
}

func TestRandomUniformDeterministicAndInRange(t *testing.T) {
	f := RandomUniform(100, 50, 200, 0, true, 7)
	a, b := drain(f), drain(f)
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
	c := drain(RandomUniform(100, 50, 200, 0, true, 8))
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
	f := Concat(Sequential(0, 3, 0, false), Sequential(10, 2, 0, false))
	got := Pages(drain(f))
	want := []memory.PageNum{0, 1, 2, 10, 11}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("concat = %v", got)
		}
	}
	if len(drain(Concat())) != 0 {
		t.Fatal("empty concat should be empty")
	}
}

func TestInterleaveRoundRobin(t *testing.T) {
	f := Interleave(Sequential(0, 3, 0, false), Sequential(100, 3, 0, false))
	got := Pages(drain(f))
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
	f := Interleave(Sequential(0, 5, 0, false), Sequential(100, 2, 0, false))
	got := Pages(drain(f))
	if len(got) != 7 {
		t.Fatalf("interleave dropped refs: %v", got)
	}
	// After the short stream drains, the long one continues alone.
	if got[len(got)-1] != 4 {
		t.Fatalf("tail = %v", got)
	}
}

func TestRepeat(t *testing.T) {
	f := Repeat(3, Sequential(5, 2, 0, false))
	got := Pages(drain(f))
	want := []memory.PageNum{5, 6, 5, 6, 5, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("repeat = %v", got)
		}
	}
}

func TestPermutedCoversExactlyOnce(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int64(nRaw%100) + 1
		refs := drain(Permuted(50, n, 0, false, seed))
		if int64(len(refs)) != n {
			return false
		}
		seen := make(map[memory.PageNum]bool)
		for _, r := range refs {
			if r.Page < 50 || r.Page >= memory.PageNum(50+n) || seen[r.Page] {
				return false
			}
			seen[r.Page] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPermutedCoversExactlyOnce(t *testing.T) {
	f := func(seed uint64, nRaw, bRaw uint8) bool {
		n := int64(nRaw%200) + 1
		block := int64(bRaw%16) + 1
		refs := drain(BlockPermuted(10, n, block, 0, false, seed))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockPermutedLocallySequential(t *testing.T) {
	const block = 8
	refs := drain(BlockPermuted(0, 64, block, 0, false, 3))
	for i := 0; i < len(refs); i += block {
		for j := 1; j < block; j++ {
			if refs[i+j].Page != refs[i].Page+memory.PageNum(j) {
				t.Fatalf("block starting at ref %d not sequential: %v", i, Pages(refs[i:i+block]))
			}
		}
	}
}

func TestLimit(t *testing.T) {
	f := Limit(3, Sequential(0, 100, 0, false))
	if got := len(drain(f)); got != 3 {
		t.Fatalf("limit = %d", got)
	}
	f = Limit(10, Sequential(0, 2, 0, false))
	if got := len(drain(f)); got != 2 {
		t.Fatalf("limit beyond length = %d", got)
	}
}

func TestCount(t *testing.T) {
	if got := Count(Sequential(0, 42, 0, false)); got != 42 {
		t.Fatalf("count = %d", got)
	}
}

func TestCollectMax(t *testing.T) {
	src := Sequential(0, 100, 0, false)()
	refs := Collect(src, 10)
	if len(refs) != 10 {
		t.Fatalf("collect max = %d", len(refs))
	}
}
