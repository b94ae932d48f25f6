package core

import (
	"testing"
	"testing/quick"

	"ampom/internal/memory"
	"ampom/internal/prng"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// paperCfg disables the read-ahead baseline so raw Eq. 1–3 behaviour is
// observable, and uses the paper's l=20, dmax=4.
func paperCfg() Config {
	return Config{WindowLen: 20, DMax: 4, MaxPrefetch: 1024, BaselineScore: -1}
}

func record(p *Prefetcher, pages []int64) {
	for i, v := range pages {
		p.RecordFault(memory.PageNum(v), simtime.Time(i)*simtime.Time(simtime.Millisecond), 1)
	}
}

func est(rtt, td simtime.Duration) Estimates {
	return Estimates{RTT: rtt, PageTransfer: td}
}

func TestConfigDefaults(t *testing.T) {
	c, err := Config{}.normalised()
	if err != nil {
		t.Fatal(err)
	}
	if c.WindowLen != DefaultWindowLen || c.DMax != DefaultDMax ||
		c.MaxPrefetch != DefaultMaxPrefetch || c.BaselineScore != DefaultBaselineScore {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{WindowLen: 1},
		{WindowLen: 10, DMax: 10},
		{WindowLen: 10, DMax: -1},
		{MaxPrefetch: -2},
		{BaselineScore: 1.5},
	}
	for _, c := range bad {
		if _, err := New(c, 100); err == nil {
			t.Fatalf("config %+v accepted", c)
		}
	}
	if _, err := New(DefaultConfig(), 0); err == nil {
		t.Fatal("zero-page address space accepted")
	}
}

func TestWindowSlide(t *testing.T) {
	p := MustNew(Config{WindowLen: 4, DMax: 2}, 1000)
	record(p, []int64{1, 2, 3, 4, 5, 6})
	w := window(p)
	want := []memory.PageNum{3, 4, 5, 6}
	if len(w) != 4 {
		t.Fatalf("window = %v", w)
	}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("window = %v, want %v (oldest discarded, §3.1)", w, want)
		}
	}
}

func TestConsecutiveRepeatsCollapse(t *testing.T) {
	p := MustNew(paperCfg(), 1000)
	record(p, []int64{7, 7, 7, 8})
	w := window(p)
	if len(w) != 2 || w[0] != 7 || w[1] != 8 {
		t.Fatalf("window = %v, want [7 8] (§3.1: consecutive repeats collapse)", w)
	}
	if p.Faults() != 4 {
		t.Fatalf("faults = %d, want 4 (collapse affects window, not census)", p.Faults())
	}
}

// TestScorePaperExample2 checks Eq. 1 against §3.2's worked example:
// {10,99,11,34,12,85} with l = 6 gives S = 0.25.
func TestScorePaperExample2(t *testing.T) {
	p := MustNew(Config{WindowLen: 6, DMax: 4, BaselineScore: -1}, 1000)
	record(p, []int64{10, 99, 11, 34, 12, 85})
	a := p.Analyze(est(0, 0))
	if a.Score != 0.25 {
		t.Fatalf("S = %v, want 0.25 (paper §3.2)", a.Score)
	}
}

// TestScoreSequentialIsOne: §3.2 "a process only does sequential access to
// consecutive pages has S = 1".
func TestScoreSequentialIsOne(t *testing.T) {
	p := MustNew(paperCfg(), 10000)
	seq := make([]int64, 20)
	for i := range seq {
		seq[i] = int64(100 + i)
	}
	record(p, seq)
	if a := p.Analyze(est(0, 0)); a.Score != 1 {
		t.Fatalf("sequential S = %v, want 1", a.Score)
	}
}

// TestPivotsPaperExample reproduces §3.4's worked example: window
// {13,27,7,8,14,8,3,15,4,5} has outstanding streams {14,15}, {3,4}, {4,5}
// with pivots 16, 5 and 6; the stream {7,8} is no longer outstanding.
func TestPivotsPaperExample(t *testing.T) {
	p := MustNew(Config{WindowLen: 10, DMax: 4, BaselineScore: -1}, 1000)
	record(p, []int64{13, 27, 7, 8, 14, 8, 3, 15, 4, 5})
	a := p.Analyze(est(simtime.Second, 0)) // estimates irrelevant to pivots
	want := []memory.PageNum{16, 5, 6}
	if len(a.Pivots) != len(want) {
		t.Fatalf("pivots = %v, want %v (paper §3.4)", a.Pivots, want)
	}
	for i := range want {
		if a.Pivots[i] != want[i] {
			t.Fatalf("pivots = %v, want %v (paper §3.4)", a.Pivots, want)
		}
	}
	if a.Streams != 3 {
		t.Fatalf("m = %d, want 3", a.Streams)
	}
}

// TestNFormula checks Eq. 3 numerically: N = (c'/c)·S·(r·(2t0+td) + 1).
func TestNFormula(t *testing.T) {
	p := MustNew(paperCfg(), 1_000_000)
	// 20 sequential faults 1 ms apart: r = 20 / 19 ms ≈ 1052.6 faults/s,
	// S = 1, c = c' = 1.
	record(p, func() []int64 {
		s := make([]int64, 20)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}())
	rtt := 20 * simtime.Millisecond
	td := 400 * simtime.Microsecond
	a := p.Analyze(est(rtt, td))
	r := 20.0 / 0.019
	wantN := r*(0.020+0.0004) + 1
	if a.NReal < wantN*0.999 || a.NReal > wantN*1.001 {
		t.Fatalf("NReal = %v, want ≈%v", a.NReal, wantN)
	}
	if a.N != int(a.NReal) {
		t.Fatalf("N = %d, want ⌊%v⌋", a.N, a.NReal)
	}
}

func TestNGrowsWithPagingRate(t *testing.T) {
	mk := func(spacing simtime.Duration) float64 {
		p := MustNew(paperCfg(), 1_000_000)
		for i := 0; i < 20; i++ {
			p.RecordFault(memory.PageNum(i), simtime.Time(i)*simtime.Time(spacing), 1)
		}
		return p.Analyze(est(10*simtime.Millisecond, simtime.Millisecond)).NReal
	}
	fast := mk(100 * simtime.Microsecond)
	slow := mk(10 * simtime.Millisecond)
	if fast <= slow {
		t.Fatalf("N(fast paging)=%v <= N(slow paging)=%v; Eq. 3 requires growth with r", fast, slow)
	}
}

func TestNGrowsWithLatency(t *testing.T) {
	mk := func(rtt simtime.Duration) float64 {
		p := MustNew(paperCfg(), 1_000_000)
		record(p, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
		return p.Analyze(est(rtt, simtime.Millisecond)).NReal
	}
	if mk(100*simtime.Millisecond) <= mk(simtime.Millisecond) {
		t.Fatal("N must grow with the network round trip (busy network ⇒ more aggressive, §1)")
	}
}

func TestNScalesWithCPURatio(t *testing.T) {
	mk := func(lastCPU float64) float64 {
		p := MustNew(paperCfg(), 1_000_000)
		for i := 0; i < 20; i++ {
			cpu := 0.5
			if i == 19 {
				cpu = lastCPU
			}
			p.RecordFault(memory.PageNum(i), simtime.Time(i)*simtime.Time(simtime.Millisecond), cpu)
		}
		return p.Analyze(est(10*simtime.Millisecond, 0)).NReal
	}
	if mk(1.0) <= mk(0.25) {
		t.Fatal("N must grow with c'/c (Eq. 2)")
	}
}

func TestZeroScoreNoPrefetchWithoutBaseline(t *testing.T) {
	p := MustNew(paperCfg(), 1_000_000)
	record(p, []int64{9001, 17, 55555, 1234, 777777, 42, 31337, 2718, 16180, 999,
		10007, 20011, 30013, 40009, 50021, 60013, 70001, 80021, 91, 123456})
	a := p.Analyze(est(50*simtime.Millisecond, simtime.Millisecond))
	if a.Score != 0 {
		t.Fatalf("random S = %v", a.Score)
	}
	if a.N != 0 || len(a.Zone) != 0 {
		t.Fatalf("baseline disabled but N=%d zone=%v", a.N, a.Zone)
	}
}

func TestBaselineScoreFloorsZoneSizing(t *testing.T) {
	cfg := paperCfg()
	cfg.BaselineScore = 0.5
	p := MustNew(cfg, 1_000_000)
	record(p, []int64{9001, 17, 55555, 1234, 777777, 42, 31337, 2718, 16180, 999,
		10007, 20011, 30013, 40009, 50021, 60013, 70001, 80021, 91, 123456})
	a := p.Analyze(est(50*simtime.Millisecond, simtime.Millisecond))
	if a.Score != 0 {
		t.Fatalf("reported score must stay raw, got %v", a.Score)
	}
	if a.N == 0 || len(a.Zone) == 0 {
		t.Fatal("baseline floor did not produce a read-ahead zone")
	}
	// Fallback zone follows the last faulted page (§3.4).
	if a.Zone[0] != 123457 {
		t.Fatalf("zone starts at %d, want 123457 (read-ahead after last ref)", a.Zone[0])
	}
}

func TestZoneQuotaSplitAcrossPivots(t *testing.T) {
	p := MustNew(Config{WindowLen: 10, DMax: 4, MaxPrefetch: 1024, BaselineScore: -1}, 100000)
	// Two disjoint outstanding stride-2 streams: 100,101 and 200,201.
	record(p, []int64{100, 200, 101, 201})
	// Small t keeps N tight so each pivot gets a short, disjoint run.
	a := p.Analyze(est(10*simtime.Millisecond, 0))
	if a.Streams != 2 {
		t.Fatalf("streams = %d, want 2", a.Streams)
	}
	if a.N < 2 {
		t.Fatalf("N = %d, want >= 2", a.N)
	}
	if len(a.Zone) != a.N {
		t.Fatalf("zone size %d != N %d", len(a.Zone), a.N)
	}
	// N/m pages after each pivot: first share follows 102.., second 202...
	var from100, from200 int
	for _, z := range a.Zone {
		switch {
		case z >= 102 && z < 200:
			from100++
		case z >= 202:
			from200++
		default:
			t.Fatalf("zone page %d outside both streams", z)
		}
	}
	if from100 == 0 || from200 == 0 {
		t.Fatalf("quota not split: %d/%d", from100, from200)
	}
	diff := from100 - from200
	if diff < -1 || diff > 1 {
		t.Fatalf("quota imbalance: %d vs %d", from100, from200)
	}
}

// TestZoneSavedQuota: §3.4 — overlapping streams do not waste quota; pages
// already chosen roll the quota forward to subsequent pages.
func TestZoneSavedQuota(t *testing.T) {
	p := MustNew(Config{WindowLen: 10, DMax: 4, MaxPrefetch: 1024, BaselineScore: -1}, 100000)
	// Two streams completing at adjacent pages: pivots 102 and 103.
	record(p, []int64{100, 101, 102})
	a := p.Analyze(est(simtime.Second, 0))
	if len(a.Zone) != a.N {
		t.Fatalf("zone %d != N %d (saved quota must extend the zone)", len(a.Zone), a.N)
	}
	seen := map[memory.PageNum]bool{}
	for _, z := range a.Zone {
		if seen[z] {
			t.Fatalf("duplicate zone page %d", z)
		}
		seen[z] = true
	}
}

func TestZoneClampedToAddressSpace(t *testing.T) {
	p := MustNew(Config{WindowLen: 10, DMax: 4, MaxPrefetch: 1024, BaselineScore: -1}, 105)
	record(p, []int64{100, 101, 102})
	a := p.Analyze(est(simtime.Second, 0))
	for _, z := range a.Zone {
		if z >= 105 {
			t.Fatalf("zone page %d beyond address space", z)
		}
	}
}

func TestMaxPrefetchCap(t *testing.T) {
	cfg := paperCfg()
	cfg.MaxPrefetch = 5
	p := MustNew(cfg, 1_000_000)
	record(p, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	a := p.Analyze(est(simtime.Second, 0))
	if a.N > 5 || len(a.Zone) > 5 {
		t.Fatalf("cap violated: N=%d zone=%d", a.N, len(a.Zone))
	}
}

func TestAnalyzeNeedsTwoFaults(t *testing.T) {
	p := MustNew(paperCfg(), 1000)
	if a := p.Analyze(est(0, 0)); a.N != 0 || a.Score != 0 {
		t.Fatal("empty window should analyse to nothing")
	}
	p.RecordFault(5, 0, 1)
	if a := p.Analyze(est(0, 0)); a.N != 0 {
		t.Fatal("single-entry window should analyse to nothing")
	}
}

func TestPrefetchedAccounting(t *testing.T) {
	p := MustNew(paperCfg(), 1000)
	p.RecordFault(1, 0, 1)
	p.RecordFault(2, simtime.Time(simtime.Millisecond), 1)
	p.NotePrefetched(10)
	p.NotePrefetched(5)
	if p.Prefetched() != 15 {
		t.Fatalf("prefetched = %d", p.Prefetched())
	}
	if p.Faults() != 2 {
		t.Fatalf("faults = %d", p.Faults())
	}
}

// TestKeptStridesMatchReference: after every RecordFault, every window
// slot's kept stride equals refStrideOf over the window's pages — the
// stride a scan of the window finds. The streams cover
// sequential and strided readers, interleaved streams, random pages, many
// ring wraps, the eviction of slots whose stride was already set, and a
// repeated page followed by its successor.
func TestKeptStridesMatchReference(t *testing.T) {
	src := prng.New(11)
	random := make([]int64, 300)
	for i := range random {
		random[i] = int64(src.Intn(24)) // small range: many accidental strides
	}
	var seq, strided, interleave []int64
	for i := range int64(100) {
		seq = append(seq, 1000+i)
		strided = append(strided, []int64{13, 27, 7, 8, 14, 8, 3, 15, 4, 5}[i%10]+32*(i/10))
		interleave = append(interleave, 500+(i%4)*3+i/4)
	}
	cases := []struct {
		name       string
		cfg        Config
		stream     []int64
		strideFree bool // no slot may ever hold a stride
	}{
		{"sequential", DefaultConfig(), seq, false},
		{"strided", DefaultConfig(), strided, false},
		{"interleaved at dmax", Config{WindowLen: 8, DMax: 4}, interleave, false},
		{"interleaved past dmax", Config{WindowLen: 8, DMax: 3}, interleave, true},
		{"random", DefaultConfig(), random, false},
		{"random small window", Config{WindowLen: 3, DMax: 2}, random, false},
		// 11 sets 10's stride; three faults later, 12 evicts 10 from the
		// four-slot window and completes 11 at distance 3.
		{"evict a set stride", Config{WindowLen: 4, DMax: 3}, []int64{10, 11, 40, 41, 12, 60, 61, 62}, false},
		// The repeats of 7 collapse; 8 then completes 7 at distance 1, and
		// the earlier 7 three slots back at distance 3.
		{"repeat then successor", Config{WindowLen: 6, DMax: 4}, []int64{7, 3, 7, 7, 7, 8, 8, 9}, false},
	}
	for _, c := range cases {
		p := MustNew(c.cfg, 1<<20)
		set := 0 // faults after which some slot holds a stride
		for i, pg := range c.stream {
			p.RecordFault(memory.PageNum(pg), simtime.Time(i)*simtime.Time(simtime.Millisecond), 1)
			if pos, kept, ref := strideMismatch(p); pos >= 0 {
				t.Fatalf("%s: after fault %d (page %d) slot %d of %v keeps stride %d, reference %d",
					c.name, i, pg, pos, window(p), kept, ref)
			}
			for k := range p.WindowLen() {
				if p.at(k).stride != 0 {
					set++
					break
				}
			}
		}
		if (set == 0) != c.strideFree {
			t.Fatalf("%s: a slot held a stride after %d of %d faults", c.name, set, len(c.stream))
		}
	}
}

// TestScoreMatchesTraceImplementation: the optimised in-kernel score and
// the reference implementation in package trace agree on windows of
// distinct pages.
func TestScoreMatchesTraceImplementation(t *testing.T) {
	f := func(raw [12]uint8) bool {
		seen := map[int64]bool{}
		var w []memory.PageNum
		for _, r := range raw {
			v := int64(r % 40)
			if seen[v] {
				continue
			}
			seen[v] = true
			w = append(w, memory.PageNum(v))
		}
		if len(w) < 2 {
			return true
		}
		const l, dmax = 20, 4
		p := MustNew(Config{WindowLen: l, DMax: dmax, BaselineScore: -1}, 1_000_000)
		for i, page := range w {
			p.RecordFault(page, simtime.Time(i)*simtime.Time(simtime.Millisecond), 1)
		}
		got := p.Analyze(est(0, 0)).Score
		want := trace.SpatialScore(w, l, dmax)
		diff := got - want
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestScoreBounded: the score stays in [0,1] for arbitrary windows,
// including ones with duplicate pages.
func TestScoreBounded(t *testing.T) {
	f := func(raw []uint8) bool {
		p := MustNew(paperCfg(), 1_000_000)
		for i, r := range raw {
			p.RecordFault(memory.PageNum(r%32), simtime.Time(i)*simtime.Time(simtime.Microsecond), 1)
		}
		a := p.Analyze(est(simtime.Millisecond, simtime.Microsecond))
		return a.Score >= 0 && a.Score <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestZoneNeverContainsWindowDuplicates: zone pages are distinct and within
// the address space for arbitrary fault histories.
func TestZoneInvariantsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const pages = 4096
		p := MustNew(DefaultConfig(), pages)
		for i, r := range raw {
			p.RecordFault(memory.PageNum(r%pages), simtime.Time(i)*simtime.Time(100*simtime.Microsecond), 0.8)
		}
		a := p.Analyze(est(30*simtime.Millisecond, 400*simtime.Microsecond))
		if len(a.Zone) > a.N {
			return false
		}
		seen := map[memory.PageNum]bool{}
		for _, z := range a.Zone {
			if z < 0 || z >= pages || seen[z] {
				return false
			}
			seen[z] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCostModel(t *testing.T) {
	cfg := DefaultConfig()
	a := Analysis{Zone: make([]memory.PageNum, 100)}
	cost := AnalysisCost(cfg, a)
	if cost <= 0 {
		t.Fatal("cost must be positive")
	}
	bigger := AnalysisCost(cfg, Analysis{Zone: make([]memory.PageNum, 1000)})
	if bigger <= cost {
		t.Fatal("cost must grow with zone size")
	}
	// Several µs at most for the paper configuration — the Figure 11
	// magnitude.
	if cost > 20*simtime.Microsecond {
		t.Fatalf("cost = %v implausibly high", cost)
	}
}

// TestCanonicalFixedPoint: Canonical must be idempotent and must keep the
// disabled-baseline sentinel distinct from "use the default" — the campaign
// engine's cache fingerprints and the Prefetcher construction both rely on
// round-tripping the canonical form without reinterpretation.
func TestCanonicalFixedPoint(t *testing.T) {
	for _, c := range []Config{
		{},
		DefaultConfig(),
		{BaselineScore: -1},
		{BaselineScore: -0.3},
		{WindowLen: 5, DMax: 2},
	} {
		canon := c.Canonical()
		if canon != canon.Canonical() {
			t.Errorf("Canonical not idempotent: %+v -> %+v", canon, canon.Canonical())
		}
	}
	if (Config{BaselineScore: -2}).Canonical() == DefaultConfig().Canonical() {
		t.Error("disabled baseline canonicalises to the default configuration")
	}
}
