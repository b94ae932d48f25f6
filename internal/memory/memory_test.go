package memory

import "testing"

// Contains reports whether page p falls inside the region.
func (r Region) Contains(p PageNum) bool {
	return p >= r.Start && p < r.Start+PageNum(r.Count)
}

func TestNewLayout(t *testing.T) {
	l, err := NewLayout(32, 1000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if l.Pages() != 1048 {
		t.Fatalf("pages = %d, want 1048", l.Pages())
	}
	if l.Bytes() != 1048*PageSize {
		t.Fatalf("bytes = %d", l.Bytes())
	}
	if r := l.Region(RegionCode); r.Kind != RegionCode || r.Start != 0 || r.Count != 32 {
		t.Fatalf("code region = %+v", r)
	}
	if r := l.Region(RegionHeap); r.Kind != RegionHeap || r.Start != 32 || r.Count != 1000 {
		t.Fatalf("heap region = %+v", r)
	}
	if r := l.Region(RegionStack); r.Kind != RegionStack || r.Start != 1032 || r.Count != 16 {
		t.Fatalf("stack region = %+v", r)
	}
}

func TestNewLayoutRejectsNonPositive(t *testing.T) {
	for _, c := range [][3]int64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		if _, err := NewLayout(c[0], c[1], c[2]); err == nil {
			t.Fatalf("layout %v accepted", c)
		}
	}
}

// TestRegionOf: every page of the layout lies in exactly the region of its
// kind, and pages past the end lie in none.
func TestRegionOf(t *testing.T) {
	l := MustLayout(10, 100, 5)
	cases := []struct {
		p    PageNum
		kind RegionKind
	}{
		{0, RegionCode},
		{9, RegionCode},
		{10, RegionHeap},
		{109, RegionHeap},
		{110, RegionStack},
		{114, RegionStack},
	}
	kinds := []RegionKind{RegionCode, RegionHeap, RegionStack}
	for _, c := range cases {
		for _, k := range kinds {
			if got := l.Region(k).Contains(c.p); got != (k == c.kind) {
				t.Fatalf("%v region contains page %d = %v, want page in %v", k, c.p, got, c.kind)
			}
		}
	}
	for _, k := range kinds {
		if l.Region(k).Contains(115) {
			t.Fatalf("%v region contains page 115 past the layout", k)
		}
	}
}

func TestRegionAccessors(t *testing.T) {
	l := MustLayout(10, 100, 5)
	h := l.Region(RegionHeap)
	if h.Start != 10 || h.Count != 100 {
		t.Fatalf("heap = %+v", h)
	}
	if !h.Contains(50) || h.Contains(5) || h.Contains(110) {
		t.Fatal("Contains wrong")
	}
	if !l.Valid(0) || !l.Valid(114) || l.Valid(115) || l.Valid(-1) {
		t.Fatal("Valid wrong")
	}
}

func TestRegionKindString(t *testing.T) {
	if RegionCode.String() != "code" || RegionHeap.String() != "heap" || RegionStack.String() != "stack" {
		t.Fatal("region names wrong")
	}
}

func TestAddressSpaceStates(t *testing.T) {
	as := NewAddressSpace(MustLayout(2, 10, 2))
	for p := PageNum(0); p < 14; p++ {
		if as.State(p) != StateResident {
			t.Fatalf("initial state of page %d = %v", p, as.State(p))
		}
	}
	as.SetState(3, StateRemote)
	as.SetState(4, StateInFlight)
	as.SetState(5, StateArrived)
	if as.State(3) != StateRemote || as.State(4) != StateInFlight || as.State(5) != StateArrived || as.State(6) != StateResident {
		t.Fatal("states not set")
	}
}

func TestEvictAllToRemote(t *testing.T) {
	as := NewAddressSpace(MustLayout(2, 10, 2))
	as.SetState(5, StateArrived)
	as.EvictAllToRemote()
	for p := PageNum(0); p < 14; p++ {
		if as.State(p) != StateRemote {
			t.Fatalf("page %d = %v after evict, want remote", p, as.State(p))
		}
	}
}

func TestAddressSpaceBoundsPanic(t *testing.T) {
	as := NewAddressSpace(MustLayout(1, 1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	as.State(99)
}

func TestStateString(t *testing.T) {
	names := map[PageState]string{
		StateRemote: "remote", StateInFlight: "in-flight",
		StateArrived: "arrived", StateResident: "resident",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
