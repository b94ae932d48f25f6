package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between independent streams", same)
	}
}

func TestReseed(t *testing.T) {
	s := New(7)
	first := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}
	s.Reseed(7)
	for i, want := range first {
		if got := s.Uint64(); got != want {
			t.Fatalf("after Reseed output %d = %d, want %d", i, got, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	s := New(9)
	c1 := s.Split()
	c2 := s.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		if v := s.Uint64n(256); v >= 256 {
			t.Fatalf("Uint64n(256) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(13)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ≈0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(17)
	const buckets, n = 10, 100000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	want := n / buckets
	for b, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", b, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPermIntoMatchesPerm: a permutation drawn into a reused buffer, still
// holding an earlier and larger permutation, equals the one Perm draws from
// the same state, and reuses the buffer instead of allocating.
func TestPermIntoMatchesPerm(t *testing.T) {
	buf := New(1).Perm(100)
	for _, n := range []int{100, 37, 1, 0, 64, 100} {
		want := New(uint64(n)).Perm(n)
		got := New(uint64(n)).PermInto(buf, n)
		if len(got) != n || &got[:1][0] != &buf[:1][0] {
			t.Fatalf("n=%d: PermInto returned len %d, not the reused buffer", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: PermInto %v, Perm %v", n, got, want)
			}
		}
	}
	if got := New(3).PermInto(nil, 5); len(got) != 5 {
		t.Fatalf("PermInto(nil, 5) has length %d", len(got))
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(31)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 = %v < 0", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ≈1", mean)
	}
}
