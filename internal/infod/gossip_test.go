package infod

import (
	"math"
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// gossipLine wires n gossip daemons into a line topology with a fixed
// per-hop delay, delivered through a direct send hook (no fabric): node i
// reaches node j in |i-j| hops of hopDelay each. This isolates the
// daemon's merge/age logic from routing.
func gossipLine(t *testing.T, n int, fanout int, hopDelay simtime.Duration) (*sim.Engine, []*Gossip) {
	t.Helper()
	eng := sim.New()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, "g", 1)
	}
	daemons := make([]*Gossip, n)
	store := NewSampleStore(n)
	cfg := GossipConfig{Period: simtime.Second, Fanout: fanout, WindowLen: 32}
	for i := range daemons {
		i := i
		send := func(dst int, m netmodel.Message) {
			hops := dst - i
			if hops < 0 {
				hops = -hops
			}
			eng.Schedule(simtime.Duration(hops)*hopDelay, func() { nodes[dst].Deliver(m.Payload) })
		}
		daemons[i] = NewGossip(cfg, store, nodes[i], i, 11.36e6, send, uint64(1000+i))
		daemons[i].SetProbe(func() LoadSample {
			return LoadSample{Load: float64(i), Queue: 2 * i, UsedMemMB: int64(i)}
		})
		daemons[i].Start()
	}
	return eng, daemons
}

func TestGossipMergesNewestWins(t *testing.T) {
	eng, daemons := gossipLine(t, 6, 2, simtime.Millisecond)
	eng.Run(simtime.Time(15 * simtime.Second))
	for i, g := range daemons {
		for o := 0; o < 6; o++ {
			e, ok := g.Entry(o)
			if !ok {
				t.Fatalf("daemon %d missing origin %d", i, o)
			}
			if e.Sample.Queue != 2*o || e.Sample.UsedMemMB != int64(o) {
				t.Fatalf("daemon %d origin %d carries sample %+v", i, o, e.Sample)
			}
			if age := eng.Now().Sub(e.Stamp); age < 0 {
				t.Fatalf("daemon %d origin %d age %v", i, o, age)
			}
		}
	}
}

// TestLeastLoadedFollowsMergesAndClock pins LeastLoaded's memo: an
// answer read at one instant must not survive a merge at that same
// instant, nor a clock advance that expires the entry it names.
func TestLeastLoadedFollowsMergesAndClock(t *testing.T) {
	eng, g := tableGossip(GossipConfig{Period: 2 * simtime.Second, Fanout: 2, WindowLen: 8}, 0, 8)
	now := simtime.Time(4 * MaxAge)
	eng.AdvanceTo(now)
	// merge folds in a window of (origin, age byte) entries; scriptEntry
	// gives origin o the load o%5.
	merge := func(pairs ...[2]int) {
		m := &gossipMsg{Entries: make([]gossipEntryWire, len(pairs))}
		for i, p := range pairs {
			m.Entries[i], _ = scriptEntry(g, p[0], byte(p[1]), now)
		}
		g.merge(m)
	}
	want := func(origin int, load float64, when string) {
		t.Helper()
		if o, l, ok := g.LeastLoaded(); !ok || o != origin || l != load {
			t.Fatalf("%s: LeastLoaded = %d,%v,%v, want %d,%v", when, o, l, ok, origin, load)
		}
	}
	if o, _, ok := g.LeastLoaded(); ok {
		t.Fatalf("empty table: LeastLoaded names origin %d", o)
	}
	merge([2]int{4, 16}, [2]int{3, 16})
	want(3, 3, "merge after an empty read at one instant")
	// Origin 2 arrives half a MaxAge old, at the same instant.
	merge([2]int{2, 48})
	want(2, 2, "merge after a read at one instant")
	// A load tie goes to the lower origin: 7 ties 2 and loses.
	merge([2]int{7, 16})
	want(2, 2, "tie")
	// Six tenths of a MaxAge later origin 2 has expired; 7 is next.
	now = now.Add(MaxAge * 6 / 10)
	eng.AdvanceTo(now)
	want(7, 2, "clock advance")
}

func TestGossipStalenessGrowsWithDistance(t *testing.T) {
	// With a strongly distance-proportional hop delay, the far end of the
	// line must accumulate a larger staleness estimate for origin 0 than
	// origin 0's direct neighbour does.
	eng, daemons := gossipLine(t, 8, 1, 40*simtime.Millisecond)
	eng.Run(simtime.Time(60 * simtime.Second))
	near, okN := daemons[1].AgeRTT(0)
	far, okF := daemons[7].AgeRTT(0)
	if !okN || !okF {
		t.Fatalf("missing estimates: near %v far %v", okN, okF)
	}
	if far <= near {
		t.Fatalf("staleness did not grow with distance: near %v, far %v", near, far)
	}
}

func TestGossipEstimatesAndBandwidth(t *testing.T) {
	eng, daemons := gossipLine(t, 4, 2, simtime.Millisecond)
	eng.Run(simtime.Time(10 * simtime.Second))
	g := daemons[2]
	est := g.Estimates(0)
	if est.RTT <= 0 || est.PageTransfer <= 0 {
		t.Fatalf("degenerate estimates %+v", est)
	}
	// Unheard origins fall back to the prior, never zero.
	fresh := NewGossip(GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 32}, NewSampleStore(4), cluster.NewNode(eng, "x", 1), 0, 11.36e6,
		func(int, netmodel.Message) {}, 1)
	if est := fresh.Estimates(3); est.RTT <= 0 || est.PageTransfer <= 0 {
		t.Fatalf("fresh daemon estimates degenerate: %+v", est)
	}
	if fresh.MeanRTT() <= 0 {
		t.Fatal("fresh daemon mean RTT degenerate")
	}
	if bw := g.Bandwidth(); bw <= 0 || bw > 11.36e6 {
		t.Fatalf("bandwidth estimate %g out of range", bw)
	}
}

func TestGossipStopHaltsPushes(t *testing.T) {
	eng, daemons := gossipLine(t, 3, 1, simtime.Millisecond)
	eng.Run(simtime.Time(5 * simtime.Second))
	for _, g := range daemons {
		g.Stop()
	}
	before := eng.Processed
	eng.Run(simtime.Time(10 * simtime.Second))
	// Only already-queued sends drain; no new periodic work appears.
	if eng.Processed > before+64 {
		t.Fatalf("stopped daemons still generated %d events", eng.Processed-before)
	}
}

// gossipMesh wires n daemons into a full mesh with direct delivery after a
// fixed delay, letting the test intercept (and optionally drop) every
// message. cfg is used as given, so tests can pin windows, ages and pulls.
func gossipMesh(t *testing.T, n int, cfg GossipConfig, delay simtime.Duration,
	intercept func(src, dst int, m netmodel.Message) bool) (*sim.Engine, []*Gossip) {
	t.Helper()
	eng := sim.New()
	nodes := make([]*cluster.Node, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, "g", 1)
	}
	daemons := make([]*Gossip, n)
	store := NewSampleStore(n)
	for i := range daemons {
		i := i
		send := func(dst int, m netmodel.Message) {
			if intercept != nil && !intercept(i, dst, m) {
				return
			}
			eng.Schedule(delay, func() { nodes[dst].Deliver(m.Payload) })
		}
		daemons[i] = NewGossip(cfg, store, nodes[i], i, 11.36e6, send, uint64(1000+i))
		daemons[i].SetProbe(func() LoadSample {
			return LoadSample{Load: float64(i), Queue: 2 * i, UsedMemMB: int64(i)}
		})
		daemons[i].Start()
	}
	return eng, daemons
}

// TestNewGossipRejectsNonPositive: a zero or negative Period, Fanout or
// WindowLen is a construction error, not a default.
func TestNewGossipRejectsNonPositive(t *testing.T) {
	good := GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 32}
	for _, bad := range []func(*GossipConfig){
		func(c *GossipConfig) { c.Period = 0 },
		func(c *GossipConfig) { c.Fanout = 0 },
		func(c *GossipConfig) { c.WindowLen = -1 },
	} {
		cfg := good
		bad(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGossip(%+v) did not panic", cfg)
				}
			}()
			NewGossip(cfg, NewSampleStore(2), cluster.NewNode(sim.New(), "x", 1), 0, 11.36e6, func(int, netmodel.Message) {}, 1)
		}()
	}
}

// TestNewGossipRejectsOversizedPlane: the cell index packs an origin into
// 16 bits, so a plane of MaxGossipNodes nodes takes a daemon and one more
// node does not.
func TestNewGossipRejectsOversizedPlane(t *testing.T) {
	cfg := GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 32}
	for _, n := range []int{MaxGossipNodes, MaxGossipNodes + 1} {
		func() {
			defer func() {
				if r := recover(); (r != nil) != (n > MaxGossipNodes) {
					t.Errorf("NewGossip in a %d-node plane: recovered %v", n, r)
				}
			}()
			NewGossip(cfg, NewSampleStore(n), cluster.NewNode(sim.New(), "x", 1), n-1, 11.36e6, func(int, netmodel.Message) {}, 1)
		}()
	}
}

// TestGossipPushDistinctPeers locks the fanout fix: one push round never
// targets the same peer twice, so configured fanout is always realised.
// With fanout = n-1 every round must cover the entire peer set. All sends
// of one round share the window composed at the round's tick, so the
// self entry's stamp keys the round; pull responses are composed off the
// tick grid and are left out.
func TestGossipPushDistinctPeers(t *testing.T) {
	const n, fanout = 4, 3
	period := simtime.Second
	type round struct {
		src   int
		stamp simtime.Time
	}
	sent := make(map[round][]int)
	rounds := make(map[int]int)
	cfg := GossipConfig{Period: period, Fanout: fanout, WindowLen: 32}
	eng, _ := gossipMesh(t, n, cfg, simtime.Millisecond,
		func(src, dst int, m netmodel.Message) bool {
			g, ok := m.Payload.(*gossipMsg)
			if !ok {
				return true
			}
			stamp := g.Entries[0].Stamp
			if simtime.Duration(stamp)%period != 0 {
				return true // a pull response
			}
			r := round{src, stamp}
			if len(sent[r]) == 0 {
				rounds[src]++
			}
			sent[r] = append(sent[r], dst)
			return true
		})
	eng.Run(simtime.Time(10500 * simtime.Millisecond))
	for src := 0; src < n; src++ {
		if rounds[src] < 10 {
			t.Fatalf("node %d pushed %d rounds, want ≥ 10", src, rounds[src])
		}
	}
	for r, dsts := range sent {
		if len(dsts) != fanout {
			t.Fatalf("node %d round at %v sent %d messages, want %d", r.src, r.stamp, len(dsts), fanout)
		}
		seen := map[int]bool{}
		for _, d := range dsts {
			if d == r.src {
				t.Fatalf("node %d pushed to itself", r.src)
			}
			if seen[d] {
				t.Fatalf("node %d round at %v drew peer %d twice: %v", r.src, r.stamp, d, dsts)
			}
			seen[d] = true
		}
	}
}

// TestGossipWindowBoundsWire locks the tentpole invariant: no message ever
// carries more than WindowLen entries whatever the cluster size, while a
// daemon's accumulated view still grows past the window.
func TestGossipWindowBoundsWire(t *testing.T) {
	const n, window = 40, 4
	cfg := GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: window}
	maxEntries, msgs := 0, 0
	eng, daemons := gossipMesh(t, n, cfg, simtime.Millisecond,
		func(src, dst int, m netmodel.Message) bool {
			if g, ok := m.Payload.(*gossipMsg); ok {
				msgs++
				if len(g.Entries) > maxEntries {
					maxEntries = len(g.Entries)
				}
				if want := MsgBytes + EntryBytes*int64(len(g.Entries)); m.Size != want {
					t.Fatalf("message size %d for %d entries, want %d", m.Size, len(g.Entries), want)
				}
			}
			return true
		})
	eng.Run(simtime.Time(40 * simtime.Second))
	if msgs == 0 {
		t.Fatal("no gossip messages observed")
	}
	if maxEntries > window {
		t.Fatalf("a push carried %d entries, window is %d", maxEntries, window)
	}
	best := 0
	for _, g := range daemons {
		if k := g.KnownCount(); k > best {
			best = k
		}
	}
	if best <= window {
		t.Fatalf("windowed pushes capped knowledge at %d origins; views must accumulate past the window (%d)", best, window)
	}
}

// TestGossipLocalReadsExpire locks the aging fix: entries past MaxAge stop
// serving local reads (the row reads Unknown), instead of reporting
// unbounded staleness to policies forever.
func TestGossipLocalReadsExpire(t *testing.T) {
	cfg := GossipConfig{Period: simtime.Second, Fanout: 2, WindowLen: 32}
	eng, daemons := gossipMesh(t, 4, cfg, simtime.Millisecond, nil)
	eng.Run(simtime.Time(10 * simtime.Second))
	for i, g := range daemons {
		for o := 0; o < 4; o++ {
			if _, ok := g.Entry(o); o != i && !ok {
				t.Fatalf("daemon %d missing origin %d while gossiping", i, o)
			}
		}
		g.Stop()
	}
	idleTo := func(at simtime.Time) {
		eng.At(at, func() {})
		eng.Run(at)
	}
	// Still within MaxAge of the last refresh: entries keep serving.
	idleTo(simtime.Time(10*simtime.Second + MaxAge/2))
	for i, g := range daemons {
		if got := g.KnownCount(); got != 3 {
			t.Fatalf("daemon %d counts %d live entries within MaxAge, want 3", i, got)
		}
	}
	// Idle far past MaxAge with every daemon stopped: nothing refreshes.
	idleTo(simtime.Time(10*simtime.Second + 2*MaxAge))
	for i, g := range daemons {
		for o := 0; o < 4; o++ {
			if o == i {
				continue
			}
			if _, ok := g.Entry(o); ok {
				t.Fatalf("daemon %d still serves origin %d %v past MaxAge", i, o, 2*MaxAge)
			}
		}
		if g.KnownCount() != 0 {
			t.Fatalf("daemon %d counts %d live entries past MaxAge", i, g.KnownCount())
		}
	}
}

// TestGossipAntiEntropyHealsPartition locks the pull rounds' purpose: two
// halves of a cluster are isolated from the first round (no cross entry is
// ever learned), the partition heals, and within a bounded number of pull
// rounds every daemon holds a live entry for every origin — with a window much
// smaller than the cluster, so any single push or pull carries only a
// slice of the plane.
func TestGossipAntiEntropyHealsPartition(t *testing.T) {
	const (
		n      = 10
		healAt = simtime.Time(20 * simtime.Second)
	)
	cfg := GossipConfig{Period: simtime.Second, Fanout: 1, WindowLen: 3}
	pullPeriod := PullEvery * cfg.Period
	var eng *sim.Engine
	sideOf := func(i int) bool { return i < n/2 }
	eng, daemons := gossipMesh(t, n, cfg, simtime.Millisecond,
		func(src, dst int, m netmodel.Message) bool {
			return eng.Now() >= healAt || sideOf(src) == sideOf(dst)
		})

	eng.Run(healAt)
	for i, g := range daemons {
		for o := 0; o < n; o++ {
			if _, ok := g.Entry(o); sideOf(i) != sideOf(o) && ok {
				t.Fatalf("daemon %d knows cross-partition origin %d while partitioned", i, o)
			}
		}
	}

	// Bounded convergence: 10 pull rounds after the heal, every view of
	// every origin must be live again.
	eng.Run(healAt.Add(10 * pullPeriod))
	for i, g := range daemons {
		for o := 0; o < n; o++ {
			if o == i {
				continue
			}
			if _, ok := g.Entry(o); !ok {
				t.Fatalf("daemon %d still missing origin %d ten pull rounds after the heal", i, o)
			}
		}
	}
}

func TestGossipDeterministicPeers(t *testing.T) {
	run := func() []GossipEntry {
		eng, daemons := gossipLine(t, 5, 2, simtime.Millisecond)
		eng.Run(simtime.Time(8 * simtime.Second))
		var out []GossipEntry
		for _, g := range daemons {
			for o := 0; o < 5; o++ {
				e, _ := g.Entry(o)
				out = append(out, e)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestMisfitSamplePanics: a sample whose queue length or memory does not
// fit the 32 bits a cell and a wire entry hold panics where it enters
// them — as the window carrying it is composed — and is never truncated:
// the peer that would have merged it never holds the origin.
func TestMisfitSamplePanics(t *testing.T) {
	for _, bad := range []LoadSample{
		{Queue: math.MaxInt32 + 1},
		{UsedMemMB: math.MaxInt32 + 1},
		{UsedMemMB: math.MinInt32 - 1},
	} {
		cfg := GossipConfig{Period: simtime.Second, Fanout: 1, WindowLen: 32}
		eng, daemons := gossipMesh(t, 2, cfg, simtime.Millisecond, nil)
		daemons[0].SetProbe(func() LoadSample { return bad })
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("sample %+v went out without a panic", bad)
				}
			}()
			eng.Run(simtime.Time(3 * cfg.Period))
		}()
		if e, ok := daemons[1].Entry(0); ok {
			t.Fatalf("sample %+v reached the peer as %+v", bad, e)
		}
	}
}
