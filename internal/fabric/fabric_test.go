package fabric

import (
	"fmt"
	"reflect"
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/infod"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// testCluster builds n bare nodes with a sink handler counting deliveries
// of test payloads per node and stamping the last arrival instant.
func testCluster(eng *sim.Engine, n int) ([]*cluster.Node, []int, []simtime.Time) {
	nodes := make([]*cluster.Node, n)
	got := make([]int, n)
	at := make([]simtime.Time, n)
	for i := range nodes {
		nodes[i] = cluster.NewNode(eng, "n", 1)
		i := i
		nodes[i].Handle(func(p any) bool {
			if _, ok := p.(string); ok {
				got[i]++
				at[i] = eng.Now()
				return true
			}
			return false
		})
	}
	return nodes, got, at
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if k, err := ParseKind(""); err != nil || k != KindStar {
		t.Fatalf("empty topology = %v, %v; want the star default", k, err)
	}
	if _, err := ParseKind("hypercube"); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestTwoTierShape(t *testing.T) {
	eng := sim.New()
	nodes, _, _ := testCluster(eng, 10)
	ic := Build(eng, nodes, Config{
		Kind: KindTwoTier, RackSize: 4, Oversub: 2, GossipFanout: 2, GossipPeriod: 2 * simtime.Second,
		GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1,
	})
	tiers := ic.TierStats()
	if len(tiers) != 2 {
		t.Fatalf("two-tier reports %d tiers", len(tiers))
	}
	if tiers[0].Name != "edge" || tiers[0].Links != 10 {
		t.Fatalf("edge tier %+v, want 10 links", tiers[0])
	}
	// 10 nodes in racks of 4 → 3 racks → 3 uplinks at RackSize/Oversub = 2×
	// node bandwidth each.
	if tiers[1].Name != "core" || tiers[1].Links != 3 {
		t.Fatalf("core tier %+v, want 3 uplinks", tiers[1])
	}
	wantCap := 3 * 2 * netmodel.FastEthernet().BandwidthBps
	if tiers[1].CapacityBps != wantCap {
		t.Fatalf("core capacity %g, want %g (oversubscription 2)", tiers[1].CapacityBps, wantCap)
	}
	for i := 0; i < 10; i++ {
		if ic.Gossip(i) == nil {
			t.Fatalf("node %d has no gossip daemon", i)
		}
	}
}

func TestFlatShape(t *testing.T) {
	eng := sim.New()
	nodes, _, _ := testCluster(eng, 6)
	ic := Build(eng, nodes, Config{Kind: KindFlat, GossipFanout: 2, GossipPeriod: 2 * simtime.Second,
		GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1})
	tiers := ic.TierStats()
	if len(tiers) != 1 || tiers[0].Name != "edge" || tiers[0].Links != 6 {
		t.Fatalf("flat tiers %+v, want one 6-link edge tier", tiers)
	}
}

func TestStarHasNoGossip(t *testing.T) {
	eng := sim.New()
	nodes, _, _ := testCluster(eng, 4)
	ic := Build(eng, nodes, Config{Kind: KindStar, Network: netmodel.FastEthernet(), Seed: 1})
	if ic.Gossip(1) != nil {
		t.Fatal("star reports a gossip daemon")
	}
	if got := ic.TierStats(); len(got) != 1 || got[0].Name != "star" || got[0].Links != 3 {
		t.Fatalf("star tiers %+v", got)
	}
}

// TestRoutingDelivers locks hop-by-hop delivery and latency accounting:
// same-rack pairs cross two links, cross-rack pairs four, and every
// payload lands exactly at its destination. Each node's first handler is
// registered before the fabric is built and accepts every payload but the
// envelope a star hub relays, so it would swallow any other routing
// record the fabric handed a node: it must receive the sent value itself,
// and nothing else, on every topology and on the sharded build, whose
// global payloads' final hop runs in the global phase.
func TestRoutingDelivers(t *testing.T) {
	type probe struct{ id int }
	for _, tc := range []struct {
		kind     Kind
		src, dst int
		hops     int
		sharded  bool
	}{
		{KindTwoTier, 0, 1, 2, false}, // same rack: node→leaf→node
		{KindTwoTier, 0, 5, 4, false}, // cross rack: node→leaf→core→leaf→node
		{KindFlat, 0, 5, 2, false},    // flat: node→switch→node
		{KindStar, 1, 5, 2, false},    // star: spoke→hub→spoke
		{KindStar, 0, 3, 1, false},    // hub→spoke
		{KindStar, 3, 0, 1, false},    // spoke→hub
		{KindTwoTier, 0, 1, 2, true},  // same rack, one shard
		{KindTwoTier, 5, 0, 4, true},  // cross rack, across shards
	} {
		for _, global := range []bool{false, true} {
			if global && !tc.sharded {
				continue
			}
			name := fmt.Sprintf("%v %d→%d sharded=%v global=%v", tc.kind, tc.src, tc.dst, tc.sharded, global)
			eng := sim.New()
			cfg := Config{
				Kind: tc.kind, RackSize: 4, Oversub: 4, GossipFanout: 2, GossipPeriod: 2 * simtime.Second,
				GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1,
			}
			engOf := func(int) *sim.Engine { return eng }
			run := eng.Run
			if tc.sharded {
				shardOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
				shards := []*sim.Engine{sim.New(), sim.New()}
				group := sim.NewShardGroup(eng, shards, cfg.Network.LatencyOneWay, false)
				cfg.Sharding = &Sharding{ShardOf: shardOf, Engines: shards, Group: group}
				if global {
					cfg.Sharding.GlobalPayload = func(p any) bool { _, ok := p.(*probe); return ok }
				}
				engOf = func(i int) *sim.Engine { return shards[shardOf[i]] }
				run = group.Run
			}
			nodes := make([]*cluster.Node, 8)
			seen := make([][]any, len(nodes))
			var at simtime.Time
			for i := range nodes {
				nodes[i] = cluster.NewNode(engOf(i), "n", 1)
				i := i
				nodes[i].Handle(func(p any) bool {
					if _, ok := p.(*envelope); ok && i == 0 && tc.kind == KindStar {
						return false
					}
					seen[i] = append(seen[i], p)
					at = nodes[i].Eng.Now()
					if global {
						at = eng.Now()
					}
					return true
				})
			}
			ic := Build(eng, nodes, cfg)
			sent := &probe{id: tc.dst}
			ic.Send(tc.src, tc.dst, netmodel.Message{Size: 1000, Payload: sent})
			run(simtime.Time(simtime.Second)) // before any daemon tick

			for i, ps := range seen {
				want := 0
				if i == tc.dst {
					want = 1
				}
				if len(ps) != want || want == 1 && ps[0] != sent {
					t.Fatalf("%s: node %d received %#v, want %d of the sent %p", name, i, ps, want, sent)
				}
			}
			// Each hop pays one propagation latency plus serialisation; the
			// hop count is visible in the total propagation delay.
			lat := netmodel.FastEthernet().LatencyOneWay
			ser := netmodel.FastEthernet().TransferTime(1000)
			if want := simtime.Time(simtime.Duration(tc.hops) * (lat + ser)); at != want {
				t.Fatalf("%s: delivered at %v, want %v (%d hops)", name, at, want, tc.hops)
			}
		}
	}
}

// TestUplinkContention locks the oversubscription effect: two concurrent
// cross-rack transfers share one uplink and finish later than a single
// one, while same-rack traffic is unaffected.
func TestUplinkContention(t *testing.T) {
	run := func(payloads int) simtime.Time {
		eng := sim.New()
		nodes, _, at := testCluster(eng, 8)
		ic := Build(eng, nodes, Config{
			Kind: KindTwoTier, RackSize: 4, Oversub: 4, GossipFanout: 2, GossipPeriod: 2 * simtime.Second,
			GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1,
		})
		for i := 0; i < payloads; i++ {
			ic.Send(i, 4+i, netmodel.Message{Size: 5e6, Payload: "probe"}) // rack 0 → rack 1
		}
		eng.Run(simtime.Time(simtime.Minute))
		last := at[4]
		for _, t := range at[4 : 4+payloads] {
			if t > last {
				last = t
			}
		}
		return last
	}
	one, two := run(1), run(2)
	if two <= one {
		t.Fatalf("two cross-rack transfers (%v) not slower than one (%v) — no uplink contention", two, one)
	}
}

// TestGossipPropagatesAndAges locks the dissemination contract on a flat
// fabric: after a few periods every daemon knows every origin, entries
// carry positive age-derived RTT estimates, and the estimates are
// deterministic for a fixed seed.
func TestGossipPropagatesAndAges(t *testing.T) {
	build := func() (*sim.Engine, Interconnect, int) {
		n := 8
		eng := sim.New()
		nodes, _, _ := testCluster(eng, n)
		ic := Build(eng, nodes, Config{
			Kind: KindFlat, GossipFanout: 2, GossipPeriod: simtime.Second, GossipWindow: 32,
			Network: netmodel.FastEthernet(), Seed: 9,
		})
		for i := 0; i < n; i++ {
			i := i
			ic.Gossip(i).SetProbe(func() infod.LoadSample {
				return infod.LoadSample{Load: float64(i), Queue: i, UsedMemMB: int64(i) * 10}
			})
		}
		return eng, ic, n
	}
	eng, ic, n := build()
	eng.Run(simtime.Time(20 * simtime.Second))

	for i := 0; i < n; i++ {
		g := ic.Gossip(i)
		for o := 0; o < n; o++ {
			e, ok := g.Entry(o)
			if !ok {
				t.Fatalf("daemon %d never heard about origin %d after 20 periods", i, o)
			}
			if e.Sample.Queue != o {
				t.Fatalf("daemon %d has origin %d queue %d, want %d", i, o, e.Sample.Queue, o)
			}
			if o != i {
				if rtt, ok := g.AgeRTT(o); !ok || rtt <= 0 {
					t.Fatalf("daemon %d has no staleness estimate for origin %d", i, o)
				}
				// A stamp strictly before now: the entry crossed at
				// least one link.
				if now := eng.Now(); e.Stamp >= now {
					t.Fatalf("daemon %d origin %d entry stamped %v, not before now %v", i, o, e.Stamp, now)
				}
			}
		}
		if ic.PathEstimates(i, (i+1)%n).RTT <= 0 {
			t.Fatalf("daemon %d path estimate degenerate", i)
		}
	}
	if ic.MeanRTT() <= 0 {
		t.Fatal("mean dissemination RTT degenerate")
	}

	// Determinism: a rebuilt world converges to the same estimates.
	eng2, ic2, _ := build()
	eng2.Run(simtime.Time(20 * simtime.Second))
	for i := 0; i < n; i++ {
		for o := 0; o < n; o++ {
			a, _ := ic.Gossip(i).AgeRTT(o)
			b, _ := ic2.Gossip(i).AgeRTT(o)
			if a != b {
				t.Fatalf("gossip estimates not deterministic: daemon %d origin %d %v != %v", i, o, a, b)
			}
		}
	}
}

// TestSwitchedBuildRejectsNonPositive: a switched fabric takes its shape
// and gossip fields as given, so a zero is a construction error rather
// than a default; the star ignores them.
func TestSwitchedBuildRejectsNonPositive(t *testing.T) {
	good := Config{Kind: KindTwoTier, RackSize: 4, Oversub: 4, GossipFanout: 2,
		GossipPeriod: 2 * simtime.Second, GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1}
	for _, bad := range []func(*Config){
		func(c *Config) { c.RackSize = 0 },
		func(c *Config) { c.Oversub = 0 },
		func(c *Config) { c.GossipFanout = 0 },
		func(c *Config) { c.GossipPeriod = 0 },
		func(c *Config) { c.GossipWindow = 0 },
		func(c *Config) { c.Kind, c.GossipWindow = KindFlat, 0 },
	} {
		cfg := good
		bad(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Build(%+v) did not panic", cfg)
				}
			}()
			eng := sim.New()
			nodes, _, _ := testCluster(eng, 8)
			Build(eng, nodes, cfg)
		}()
	}
	// The flat fabric has no racks, so it needs no rack shape.
	eng := sim.New()
	nodes, _, _ := testCluster(eng, 8)
	flat := good
	flat.Kind, flat.RackSize, flat.Oversub = KindFlat, 0, 0
	Build(eng, nodes, flat)
}

// TestShardedBuildRejectsLookaheadMismatch: a shard group whose window is
// not the fabric's one-way latency could see a staged delivery land inside
// the window it was staged in, so the sharded build refuses it.
func TestShardedBuildRejectsLookaheadMismatch(t *testing.T) {
	net := netmodel.FastEthernet()
	for _, tc := range []struct {
		window simtime.Duration
		panics bool
	}{
		{net.LatencyOneWay, false},
		{2 * net.LatencyOneWay, true},
	} {
		func() {
			defer func() {
				if r := recover(); (r != nil) != tc.panics {
					t.Errorf("window %v (latency %v): recovered %v, want a panic: %v", tc.window, net.LatencyOneWay, r, tc.panics)
				}
			}()
			global := sim.New()
			shards := []*sim.Engine{sim.New(), sim.New()}
			shardOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
			nodes := make([]*cluster.Node, len(shardOf))
			for i := range nodes {
				nodes[i] = cluster.NewNode(shards[shardOf[i]], "n", 1)
			}
			Build(global, nodes, Config{
				Kind: KindTwoTier, RackSize: 4, Oversub: 4, GossipFanout: 2, GossipPeriod: 2 * simtime.Second,
				GossipWindow: 32, Network: net, Seed: 1,
				Sharding: &Sharding{ShardOf: shardOf, Engines: shards, Group: sim.NewShardGroup(global, shards, tc.window, false)},
			})
		}()
	}
}

// TestStarHubMatchesIsolatedPairs: a star hub running one head daemon per
// spoke routes every exchange to its own pair, so with k = 1, 8 and 63
// spokes each head and spoke daemon ends with exactly the RTT estimate of
// an isolated pair built with the same link profile and seeds — and the
// hub's handler chain is a spoke's plus the relay, whatever k is.
func TestStarHubMatchesIsolatedPairs(t *testing.T) {
	cfg := Config{Kind: KindStar, Network: netmodel.FastEthernet(), BackgroundLoad: 0.5, Seed: 9001}
	const run = simtime.Time(40 * simtime.Second)
	hubHandlers := -1
	for _, k := range []int{1, 8, 63} {
		eng := sim.New()
		nodes := make([]*cluster.Node, k+1)
		for i := range nodes {
			nodes[i] = cluster.NewNode(eng, "n", 1)
		}
		s := buildStar(eng, nodes, cfg)
		if hub, spoke := handlerCount(nodes[0]), handlerCount(nodes[1]); hub != spoke+1 || hubHandlers >= 0 && hub != hubHandlers {
			t.Fatalf("k=%d: the hub tries %d handlers (%d at k=1), a spoke %d", k, hub, hubHandlers, spoke)
		}
		hubHandlers = handlerCount(nodes[0])
		eng.Run(run)

		drng := prngForDaemons(cfg.Seed)
		for i := 1; i <= k; i++ {
			peng := sim.New()
			a, b := cluster.NewNode(peng, "head", 1), cluster.NewNode(peng, "spoke", 1)
			link := netmodel.NewLink(peng, cfg.Network, a.NIC, b.NIC)
			link.SetBackgroundLoad(cfg.BackgroundLoad)
			head := infod.New(2*simtime.Second, a, link, drng.Uint64())
			spoke := infod.New(2*simtime.Second, b, link, drng.Uint64())
			infod.Pair(head, spoke)
			a.Handle(infod.Route)
			b.Handle(infod.Route)
			prior := head.RTT()
			head.Start()
			spoke.Start()
			peng.Run(run)
			if head.RTT() == prior {
				t.Fatalf("k=%d spoke %d: no ack sampled in the isolated pair", k, i)
			}
			if got, want := s.head[i].RTT(), head.RTT(); got != want {
				t.Fatalf("k=%d: head daemon %d RTT %v, isolated pair %v", k, i, got, want)
			}
			if got, want := s.spoke[i].RTT(), spoke.RTT(); got != want {
				t.Fatalf("k=%d: spoke daemon %d RTT %v, isolated pair %v", k, i, got, want)
			}
		}
	}
}

// handlerCount reads the length of n's handler chain, the most handlers
// one delivery to n can try. The chain is unexported and nothing but this
// test needs its length, so the test reads it by reflection.
func handlerCount(n *cluster.Node) int {
	return reflect.ValueOf(n).Elem().FieldByName("handlers").Len()
}

// TestSendAllocFree: once the links' rings and the uplinks' core-hop
// records are warm, routing a message allocates nothing, within a rack
// and across the core, on the sequential build and on the sharded one,
// where the core hop crosses shards through the group's barrier.
func TestSendAllocFree(t *testing.T) {
	shardOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	for _, sharded := range []bool{false, true} {
		global := sim.New()
		cfg := Config{
			Kind: KindTwoTier, RackSize: 4, Oversub: 4, GossipFanout: 2, GossipPeriod: 3600 * simtime.Second,
			GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1,
		}
		engOf := func(int) *sim.Engine { return global }
		run := global.Run
		if sharded {
			shards := []*sim.Engine{sim.New(), sim.New()}
			group := sim.NewShardGroup(global, shards, cfg.Network.LatencyOneWay, false)
			cfg.Sharding = &Sharding{ShardOf: shardOf, Engines: shards, Group: group}
			engOf = func(i int) *sim.Engine { return shards[shardOf[i]] }
			run = group.Run
		}
		nodes := make([]*cluster.Node, len(shardOf))
		got := 0
		for i := range nodes {
			nodes[i] = cluster.NewNode(engOf(i), "n", 1)
			nodes[i].Handle(func(p any) bool { got++; return true })
		}
		ic := Build(global, nodes, cfg)
		for _, pair := range [][2]int{{0, 1}, {0, 5}} {
			send := func() {
				ic.Send(pair[0], pair[1], netmodel.Message{Size: 1000, Payload: "probe"})
				run(global.Now().Add(simtime.Second))
			}
			for i := 0; i < 4; i++ {
				send()
			}
			got = 0
			if a := testing.AllocsPerRun(20, send); a != 0 {
				t.Errorf("sharded %v: a warm send %d→%d allocates %v times", sharded, pair[0], pair[1], a)
			}
			// AllocsPerRun makes one warm-up call before the measured runs.
			if got != 21 {
				t.Errorf("sharded %v: %d→%d delivered %d of 21 sends", sharded, pair[0], pair[1], got)
			}
		}
	}
}
