package trace

import (
	"testing"
	"testing/quick"

	"ampom/internal/memory"
)

func pages(vs ...int64) []memory.PageNum {
	out := make([]memory.PageNum, len(vs))
	for i, v := range vs {
		out[i] = memory.PageNum(v)
	}
	return out
}

// TestStrideCountsPaperExample1 reproduces §3.1: "the access stream
// {1,99,2,45,3,78,4} contains three stride-2 references ... stride2 = 4
// because there are four pages (1,2,3,4) accessed in a stride-2 pattern."
func TestStrideCountsPaperExample1(t *testing.T) {
	counts := StrideCounts(pages(1, 99, 2, 45, 3, 78, 4), 4)
	if counts[2] != 4 {
		t.Fatalf("stride_2 = %d, want 4 (paper §3.1)", counts[2])
	}
	if counts[1] != 0 || counts[3] != 0 || counts[4] != 0 {
		t.Fatalf("unexpected stride counts: %v", counts)
	}
}

// TestSpatialScorePaperExample2 reproduces §3.2:
// "{10,99,11,34,12,85} only has one stride-2 reference stream {10,11,12}
// (3 pages), therefore stride2 = 3 ... and S = stride2/(6×2) = 0.25."
func TestSpatialScorePaperExample2(t *testing.T) {
	w := pages(10, 99, 11, 34, 12, 85)
	counts := StrideCounts(w, 4)
	if counts[2] != 3 {
		t.Fatalf("stride_2 = %d, want 3 (paper §3.2)", counts[2])
	}
	if got := SpatialScore(w, 6, 4); got != 0.25 {
		t.Fatalf("S = %v, want 0.25 (paper §3.2)", got)
	}
}

// TestSpatialScoreSequential reproduces §3.2: a purely sequential stream
// has S = 1.
func TestSpatialScoreSequential(t *testing.T) {
	w := make([]memory.PageNum, 20)
	for i := range w {
		w[i] = memory.PageNum(i + 100)
	}
	if got := SpatialScore(w, 20, 4); got != 1.0 {
		t.Fatalf("sequential S = %v, want 1 (paper §3.2)", got)
	}
}

func TestSpatialScoreRandomNearZero(t *testing.T) {
	w := pages(90001, 17, 55555, 1234, 777777, 42, 31337, 2718, 16180, 999,
		10007, 20011, 30013, 40009, 50021, 60013, 70001, 80021, 91, 123456)
	if got := SpatialScore(w, 20, 4); got != 0 {
		t.Fatalf("random S = %v, want 0", got)
	}
}

func TestSpatialScoreEdgeCases(t *testing.T) {
	if got := SpatialScore(nil, 20, 4); got != 0 {
		t.Fatalf("nil window S = %v", got)
	}
	if got := SpatialScore(pages(5), 20, 4); got != 0 {
		t.Fatalf("singleton window S = %v", got)
	}
	if got := SpatialScore(pages(1, 2), 0, 4); got != 0 {
		t.Fatalf("l=0 S = %v", got)
	}
}

func TestStrideCountsMinimumDistance(t *testing.T) {
	// Page 5 appears twice; its stride is the minimum forward distance to
	// page 6: from the second occurrence, d = 1. Together with the 90→91
	// link, pages {5,6,90,91} all participate at d = 1.
	counts := StrideCounts(pages(5, 90, 91, 5, 6), 4)
	if counts[1] != 4 {
		t.Fatalf("stride_1 = %d, want 4 (pages 5,6,90,91)", counts[1])
	}
	if counts[2] != 0 && counts[3] != 0 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestStrideCountsBeyondDMax(t *testing.T) {
	// 1 ... 2 at distance 5 exceeds dmax=4: no stride.
	counts := StrideCounts(pages(1, 90, 91, 92, 93, 2), 4)
	for d := 1; d <= 4; d++ {
		if d == 1 {
			// 90,91,92,93 chain at d=1: pages 90..93.
			if counts[1] != 4 {
				t.Fatalf("stride_1 = %d, want 4", counts[1])
			}
			continue
		}
		if counts[d] != 0 {
			t.Fatalf("stride_%d = %d, want 0", d, counts[d])
		}
	}
}

func TestScoreBoundedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		w := make([]memory.PageNum, len(raw))
		for i, r := range raw {
			w[i] = memory.PageNum(r % 32) // dense range → many strides
		}
		s := SpatialScore(CollapseRepeats(w), 20, 4)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseRepeats(t *testing.T) {
	got := CollapseRepeats(pages(1, 1, 2, 2, 2, 3, 1, 1))
	want := pages(1, 2, 3, 1)
	if len(got) != len(want) {
		t.Fatalf("collapse = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collapse = %v, want %v", got, want)
		}
	}
	if out := CollapseRepeats(nil); len(out) != 0 {
		t.Fatal("collapse(nil) not empty")
	}
}

func TestSlidingSpatialScore(t *testing.T) {
	seq := make([]memory.PageNum, 200)
	for i := range seq {
		seq[i] = memory.PageNum(i)
	}
	if got := SlidingSpatialScore(seq, 20, 4); got < 0.9 {
		t.Fatalf("sliding sequential = %v, want ≈1", got)
	}
	short := pages(1, 2, 3)
	if got := SlidingSpatialScore(short, 20, 4); got <= 0 {
		t.Fatalf("short trace score = %v, want > 0", got)
	}
}

func TestTemporalScore(t *testing.T) {
	// Cycling over 4 pages with window 8: everything reused.
	var cyc []memory.PageNum
	for i := 0; i < 100; i++ {
		cyc = append(cyc, memory.PageNum(i%4))
	}
	if got := TemporalScore(cyc, 8); got != 1 {
		t.Fatalf("cyclic temporal = %v, want 1", got)
	}
	// Streaming: no page ever repeats.
	var str []memory.PageNum
	for i := 0; i < 100; i++ {
		str = append(str, memory.PageNum(i))
	}
	if got := TemporalScore(str, 8); got != 0 {
		t.Fatalf("streaming temporal = %v, want 0", got)
	}
	if got := TemporalScore(nil, 8); got != 0 {
		t.Fatalf("nil temporal = %v", got)
	}
	// Short trace fallback: repeats counted directly.
	if got := TemporalScore(pages(1, 1, 2), 8); got <= 0 {
		t.Fatalf("short-trace temporal = %v", got)
	}
}
