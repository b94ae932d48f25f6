package fabric

import (
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
	if ic.Kind() != KindTwoTier {
		t.Fatalf("kind = %v", ic.Kind())
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
	if ic.Kind() != KindStar {
		t.Fatalf("kind = %v", ic.Kind())
	}
	if ic.Gossip(1) != nil {
		t.Fatal("star reports a gossip daemon")
	}
	if got := ic.TierStats(); len(got) != 1 || got[0].Name != "star" || got[0].Links != 3 {
		t.Fatalf("star tiers %+v", got)
	}
}

// TestRoutingDelivers locks hop-by-hop delivery and latency accounting:
// same-rack pairs cross two links, cross-rack pairs four, and every
// payload lands exactly at its destination.
func TestRoutingDelivers(t *testing.T) {
	for _, tc := range []struct {
		kind     Kind
		src, dst int
		hops     int
	}{
		{KindTwoTier, 0, 1, 2}, // same rack: node→leaf→node
		{KindTwoTier, 0, 5, 4}, // cross rack: node→leaf→core→leaf→node
		{KindFlat, 0, 5, 2},    // flat: node→switch→node
		{KindStar, 1, 5, 2},    // star: spoke→hub→spoke
		{KindStar, 0, 3, 1},    // hub send: one spoke
	} {
		eng := sim.New()
		nodes, got, at := testCluster(eng, 8)
		ic := Build(eng, nodes, Config{
			Kind: tc.kind, RackSize: 4, Oversub: 4, GossipFanout: 2, GossipPeriod: 2 * simtime.Second,
			GossipWindow: 32, Network: netmodel.FastEthernet(), Seed: 1,
		})
		start := eng.Now()
		ic.Send(tc.src, tc.dst, netmodel.Message{Size: 1000, Payload: "probe"})
		eng.Run(simtime.Time(simtime.Second)) // before any daemon tick

		for i, n := range got {
			want := 0
			if i == tc.dst {
				want = 1
			}
			if n != want {
				t.Fatalf("%v %d→%d: node %d saw %d payloads, want %d", tc.kind, tc.src, tc.dst, i, n, want)
			}
		}
		// Each hop pays one propagation latency plus serialisation; the
		// hop count is visible in the total propagation delay.
		lat := netmodel.FastEthernet().LatencyOneWay
		ser := netmodel.FastEthernet().TransferTime(1000)
		want := simtime.Duration(tc.hops) * (lat + ser)
		if got := at[tc.dst].Sub(start); got != want {
			t.Fatalf("%v %d→%d: delivery took %v, want %v (%d hops)", tc.kind, tc.src, tc.dst, got, want, tc.hops)
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
			e := g.Entry(o)
			if !e.Known {
				t.Fatalf("daemon %d never heard about origin %d after 20 periods", i, o)
			}
			if e.Sample.Queue != o {
				t.Fatalf("daemon %d has origin %d queue %d, want %d", i, o, e.Sample.Queue, o)
			}
			if o != i {
				if rtt, ok := g.AgeRTT(o); !ok || rtt <= 0 {
					t.Fatalf("daemon %d has no staleness estimate for origin %d", i, o)
				}
				if e.Hops < 1 {
					t.Fatalf("daemon %d origin %d entry has hop count %d", i, o, e.Hops)
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
