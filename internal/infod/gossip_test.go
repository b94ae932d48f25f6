package infod

import (
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
	cfg := GossipConfig{Period: simtime.Second, Fanout: fanout}
	for i := range daemons {
		i := i
		send := func(dst int, m netmodel.Message) {
			hops := dst - i
			if hops < 0 {
				hops = -hops
			}
			eng.Schedule(simtime.Duration(hops)*hopDelay, func() { nodes[dst].Deliver(m.Payload) })
		}
		daemons[i] = NewGossip(cfg, nodes[i], i, n, 11.36e6, send, uint64(1000+i))
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
			e := g.Entry(o)
			if !e.Known {
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
	fresh := NewGossip(GossipConfig{}, cluster.NewNode(eng, "x", 1), 0, 4, 11.36e6,
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
	for i := range daemons {
		i := i
		send := func(dst int, m netmodel.Message) {
			if intercept != nil && !intercept(i, dst, m) {
				return
			}
			eng.Schedule(delay, func() { nodes[dst].Deliver(m.Payload) })
		}
		daemons[i] = NewGossip(cfg, nodes[i], i, n, 11.36e6, send, uint64(1000+i))
		daemons[i].SetProbe(func() LoadSample {
			return LoadSample{Load: float64(i), Queue: 2 * i, UsedMemMB: int64(i)}
		})
		daemons[i].Start()
	}
	return eng, daemons
}

// TestGossipConfigNegativeDisables locks the config convention: zero still
// means "use the default", while a negative Jitter/MaxAge/Alpha/PullPeriod
// explicitly disables the mechanism — the knobs withDefaults used to
// silently overwrite.
func TestGossipConfigNegativeDisables(t *testing.T) {
	def := GossipConfig{}.withDefaults()
	if def.Jitter != 0.5 || def.Alpha != 0.1 || def.MaxAge != 30*simtime.Second {
		t.Fatalf("zero knobs did not take defaults: %+v", def)
	}
	if def.WindowLen != DefaultWindowLen {
		t.Fatalf("default window %d, want %d", def.WindowLen, DefaultWindowLen)
	}
	if def.PullPeriod != 4*def.Period {
		t.Fatalf("default pull period %v, want 4×%v", def.PullPeriod, def.Period)
	}
	off := GossipConfig{Jitter: -1, MaxAge: -simtime.Second, Alpha: -0.5, PullPeriod: -1}.withDefaults()
	if off.Jitter != 0 {
		t.Fatalf("negative Jitter resolved to %g, want disabled (0)", off.Jitter)
	}
	if off.Alpha != 0 {
		t.Fatalf("negative Alpha resolved to %g, want disabled (0)", off.Alpha)
	}
	if off.MaxAge > 0 {
		t.Fatalf("negative MaxAge resolved to %v, want disabled", off.MaxAge)
	}
	if off.PullPeriod > 0 {
		t.Fatalf("negative PullPeriod resolved to %v, want disabled", off.PullPeriod)
	}
	// Disabled jitter draws exactly SchedDelay, every time.
	eng := sim.New()
	g := NewGossip(GossipConfig{Jitter: -1}, cluster.NewNode(eng, "x", 1), 0, 2, 11.36e6,
		func(int, netmodel.Message) {}, 1)
	for i := 0; i < 8; i++ {
		if d := g.schedDelay(); d != g.cfg.SchedDelay {
			t.Fatalf("disabled jitter drew delay %v, want exactly %v", d, g.cfg.SchedDelay)
		}
	}
}

// TestGossipPushDistinctPeers locks the fanout fix: one push round never
// targets the same peer twice, so configured fanout is always realised.
// With fanout = n-1 every round must cover the entire peer set.
func TestGossipPushDistinctPeers(t *testing.T) {
	const n, fanout = 4, 3
	sent := make(map[int][]int)
	cfg := GossipConfig{
		Period: simtime.Second, Fanout: fanout,
		SchedDelay: simtime.Duration(1), Jitter: -1, PullPeriod: -1,
	}
	eng, _ := gossipMesh(t, n, cfg, simtime.Millisecond,
		func(src, dst int, m netmodel.Message) bool {
			if _, ok := m.Payload.(gossipMsg); ok {
				sent[src] = append(sent[src], dst)
			}
			return true
		})
	eng.Run(simtime.Time(10500 * simtime.Millisecond))
	for src := 0; src < n; src++ {
		dsts := sent[src]
		if len(dsts) < 10*fanout {
			t.Fatalf("node %d pushed %d messages, want ≥ %d", src, len(dsts), 10*fanout)
		}
		// Scheduling delays are pinned, so sends arrive in per-round groups
		// of exactly fanout; each group must cover all n-1 peers.
		for r := 0; r+fanout <= len(dsts); r += fanout {
			seen := map[int]bool{}
			for _, d := range dsts[r : r+fanout] {
				if d == src {
					t.Fatalf("node %d pushed to itself", src)
				}
				if seen[d] {
					t.Fatalf("node %d round %d drew peer %d twice: %v", src, r/fanout, d, dsts[r:r+fanout])
				}
				seen[d] = true
			}
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
			if g, ok := m.Payload.(gossipMsg); ok {
				msgs++
				if len(g.Entries) > maxEntries {
					maxEntries = len(g.Entries)
				}
				if want := cfg.withDefaults().MsgBytes + cfg.withDefaults().EntryBytes*int64(len(g.Entries)); m.Size != want {
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
// unbounded staleness to policies forever — while a negative MaxAge
// explicitly disables expiry.
func TestGossipLocalReadsExpire(t *testing.T) {
	run := func(maxAge simtime.Duration) []*Gossip {
		cfg := GossipConfig{Period: simtime.Second, Fanout: 2, MaxAge: maxAge}
		eng, daemons := gossipMesh(t, 4, cfg, simtime.Millisecond, nil)
		eng.Run(simtime.Time(10 * simtime.Second))
		for i, g := range daemons {
			for o := 0; o < 4; o++ {
				if o != i && !g.Entry(o).Known {
					t.Fatalf("daemon %d missing origin %d while gossiping", i, o)
				}
			}
			g.Stop()
		}
		// Idle far past MaxAge with every daemon stopped: nothing refreshes.
		eng.At(simtime.Time(30*simtime.Second), func() {})
		eng.Run(simtime.Time(30 * simtime.Second))
		return daemons
	}

	for i, g := range run(2 * simtime.Second) {
		for o := 0; o < 4; o++ {
			if o == i {
				continue
			}
			if g.Entry(o).Known {
				t.Fatalf("daemon %d still serves origin %d %v past MaxAge", i, o, 28*simtime.Second)
			}
		}
		if g.KnownCount() != 0 {
			t.Fatalf("daemon %d counts %d live entries past MaxAge", i, g.KnownCount())
		}
	}

	// Negative MaxAge: aging disabled, stale entries serve forever.
	for i, g := range run(-simtime.Second) {
		for o := 0; o < 4; o++ {
			if o != i && !g.Entry(o).Known {
				t.Fatalf("daemon %d expired origin %d with aging disabled", i, o)
			}
		}
	}
}

// TestGossipAntiEntropyHealsPartition locks the pull rounds' purpose: two
// halves of a cluster are isolated from the first round (no cross entry is
// ever learned), the partition heals, and within a bounded number of pull
// rounds every daemon's view of every origin is Known — with a window much
// smaller than the cluster, so any single push or pull carries only a
// slice of the plane.
func TestGossipAntiEntropyHealsPartition(t *testing.T) {
	const (
		n      = 10
		healAt = simtime.Time(20 * simtime.Second)
	)
	cfg := GossipConfig{
		Period: simtime.Second, Fanout: 1, WindowLen: 3,
		PullPeriod: 2 * simtime.Second, MaxAge: 30 * simtime.Second,
	}
	var eng *sim.Engine
	sideOf := func(i int) bool { return i < n/2 }
	eng, daemons := gossipMesh(t, n, cfg, simtime.Millisecond,
		func(src, dst int, m netmodel.Message) bool {
			return eng.Now() >= healAt || sideOf(src) == sideOf(dst)
		})

	eng.Run(healAt)
	for i, g := range daemons {
		for o := 0; o < n; o++ {
			if sideOf(i) != sideOf(o) && g.Entry(o).Known {
				t.Fatalf("daemon %d knows cross-partition origin %d while partitioned", i, o)
			}
		}
	}

	// Bounded convergence: 10 pull rounds after the heal, every view of
	// every origin must be live again.
	eng.Run(healAt.Add(10 * cfg.PullPeriod))
	for i, g := range daemons {
		for o := 0; o < n; o++ {
			if o == i {
				continue
			}
			if !g.Entry(o).Known {
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
				out = append(out, g.Entry(o))
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
