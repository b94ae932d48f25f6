package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/infod"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// gossipViewSpec is a small two-tier cluster whose gossip window (4) is
// well below the node count (16), so hand-off views genuinely mix Known
// and Unknown rows while the plane converges.
func gossipViewSpec() Spec {
	return Spec{
		Name:            "gossip-view-prop",
		Nodes:           16,
		Procs:           64,
		SlowFrac:        0.25,
		SlowScale:       0.5,
		MeanCompute:     2 * simtime.Second,
		MeanFootprintMB: 32,
		Fabric:          FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4, GossipWindow: 4},
		Churn: []ChurnEvent{
			{At: 2 * simtime.Second, Kind: ChurnSlowNode, Node: 1, Factor: 0.5},
		},
	}.Canonical()
}

// gossipRebuild builds src's gossip view from scratch, straight from the
// daemon's entries and a rebuild of the ground truth: the self row exact,
// known rows aged at the current instant, everything else the Unknown
// template with the cluster capacity and the live CPU scale.
func gossipRebuild(c *clusterSim, truth []sched.NodeView, src int) sched.RowSlice {
	g := c.ic.Gossip(src)
	now := c.eng.Now()
	want := make(sched.RowSlice, len(truth))
	for i := range want {
		if i == src {
			want[i] = truth[i]
			continue
		}
		e, ok := g.Entry(i)
		if !ok {
			want[i] = sched.NodeView{
				CPUScale:   c.nodes[i].CPUScale,
				Load:       math.Inf(1),
				CapacityMB: c.spec.NodeMemMB,
				Unknown:    true,
			}
			continue
		}
		want[i] = sched.NodeView{
			Procs:      e.Sample.Queue,
			CPUScale:   c.nodes[i].CPUScale,
			Load:       e.Sample.Load,
			UsedMemMB:  e.Sample.UsedMemMB,
			CapacityMB: c.spec.NodeMemMB,
			QueueLen:   e.Sample.Queue,
			InfoAge:    now.Sub(e.Stamp),
		}
	}
	return want
}

// checkGossipViews checks every source's gossip view, as the balancer
// hands it out now, against gossipRebuild: every row read through Node,
// and LeastLoaded against a RowSlice scan of the rebuild. It returns the
// rebuilds.
func checkGossipViews(t *testing.T, c *clusterSim) []sched.RowSlice {
	t.Helper()
	truth, _ := rebuildRows(c)
	base := c.bal.view()
	out := make([]sched.RowSlice, len(truth))
	for src := range truth {
		want := gossipRebuild(c, truth, src)
		got := c.bal.gossipView(src, base)
		if got.Len() != len(want) {
			t.Fatalf("src %d at %v: view serves %d rows, want %d", src, c.eng.Now(), got.Len(), len(want))
		}
		for i := range want {
			if row := got.Node(i); row != want[i] {
				t.Fatalf("src %d row %d at %v: served %+v, rebuild %+v", src, i, c.eng.Now(), row, want[i])
			}
		}
		if g, w := got.LeastLoaded(), want.LeastLoaded(); g != w {
			t.Fatalf("src %d at %v: LeastLoaded %d, scan of the rebuild %d", src, c.eng.Now(), g, w)
		}
		out[src] = want
	}
	return out
}

// TestGossipViewIncrementalMatchesRebuild is the consumer-side property of
// the on-demand gossip view: at every balance hand-off, for every source
// node, each row the view serves is identical to a from-scratch rebuild
// straight from the daemon's entries — self row exact, known rows aged at
// the decision instant, everything else the Unknown template with the
// cluster capacity and the live CPU scale — and its LeastLoaded equals a
// scan of that rebuild.
func TestGossipViewIncrementalMatchesRebuild(t *testing.T) {
	spec := gossipViewSpec()
	if err := spec.Validate(); err != nil {
		t.Fatalf("invalid spec: %v", err)
	}
	pol, ok := sched.Lookup(sched.NameQueueGossip)
	if !ok {
		t.Fatal("queue-gossip policy not registered")
	}
	const seed = 5
	scales, tmpl := buildWorkload(spec, seed)
	c := buildClusterSim(spec, scales, tmpl, pol, seed, 1, nil)
	if c.ic.Gossip(0) == nil {
		t.Fatal("switched fabric without a gossip daemon")
	}
	rounds := 0
	sawKnown, sawUnknownWithCap := false, false
	startChecking(t, c, func(sched.View) {
		rounds++
		for _, want := range checkGossipViews(t, c) {
			for _, row := range want {
				sawKnown = sawKnown || !row.Unknown
				sawUnknownWithCap = sawUnknownWithCap || (row.Unknown && row.CapacityMB > 0)
			}
		}
	})
	c.run()
	if rounds == 0 {
		t.Fatal("no balance rounds ran — the property was never checked")
	}
	if !sawKnown {
		t.Fatal("no Known gossip row ever appeared — the plane never converged at all")
	}
	if !sawUnknownWithCap {
		t.Fatal("no Unknown row with cluster capacity appeared — partial views were never exercised")
	}
}

// TestGossipViewLeastLoadedFollowsMergesAndClock pins the daemon's
// LeastLoaded memo from the consumer side. The run is stepped one event
// instant at a time, and every source's view is read twice at each
// instant: once with the clock just moved there, before any of its events
// run, and once after all of them. Between the two reads at one instant
// merges land; between an instant's second read and the next instant's
// first only the clock moves, which expires entries: nodes 0 and 1 crash
// once every load is zero, when load ties make node 0 (or 1) the least
// loaded entry of every daemon that holds it, and a MaxAge later those
// entries, which nothing refreshes, expire.
// Both reads must match a from-scratch rebuild, and the test demands that
// each kind of step actually changes some daemon's least loaded entry, so
// the memo is exercised across both.
func TestGossipViewLeastLoadedFollowsMergesAndClock(t *testing.T) {
	spec := gossipViewSpec()
	const crashAt = 40 * simtime.Second
	spec.Churn = append(spec.Churn,
		ChurnEvent{At: crashAt, Kind: ChurnNodeCrash, Node: 0},
		ChurnEvent{At: crashAt, Kind: ChurnNodeCrash, Node: 1})
	if err := spec.Validate(); err != nil {
		t.Fatalf("invalid spec: %v", err)
	}
	pol, _ := sched.Lookup(sched.NameAMPoM)
	const seed = 5
	scales, tmpl := buildWorkload(spec, seed)
	c := newClusterSimShards(spec, scales, tmpl, pol, seed, 1, nil)
	if c.horizon <= simtime.Time(crashAt+2*infod.MaxAge) {
		t.Fatalf("horizon %v ends before the stepped span", c.horizon)
	}
	// least is each daemon's least loaded entry in a rebuild, -1 for none.
	least := func(want []sched.RowSlice) []int {
		out := make([]int, len(want))
		for src, rows := range want {
			out[src] = -1
			for i, row := range rows {
				if i != src && !row.Unknown && (out[src] < 0 || row.Load < rows[out[src]].Load) {
					out[src] = i
				}
			}
		}
		return out
	}
	var last []int
	byMerge, byClock := 0, 0
	for {
		at, ok := c.eng.NextAt()
		if !ok || at > simtime.Time(crashAt+2*infod.MaxAge) {
			break
		}
		moved := at > c.eng.Now()
		c.eng.AdvanceTo(at)
		first := least(checkGossipViews(t, c))
		if moved && last != nil && !reflect.DeepEqual(first, last) {
			byClock++
		}
		c.eng.At(at, c.eng.Stop)
		c.eng.Run(at)
		last = least(checkGossipViews(t, c))
		if !reflect.DeepEqual(first, last) {
			byMerge++
		}
	}
	if byMerge == 0 || byClock == 0 {
		t.Fatalf("least loaded entries changed %d times across merges at one instant and %d times across clock moves; both must happen", byMerge, byClock)
	}
	t.Logf("least loaded entries changed %d times across merges, %d across clock moves", byMerge, byClock)
}

// TestFabricGossipWindowSpec pins the window knob's spec plumbing: it is
// behaviour-bearing (fingerprints split on it), canonicalises to the
// fabric default, survives the JSON codec, stays out of legacy star
// fingerprints, and rejects absurd values.
func TestFabricGossipWindowSpec(t *testing.T) {
	base := Spec{
		Name: "w", Nodes: 8, Procs: 16, MeanCompute: simtime.Second,
		Fabric: FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4},
	}
	windowed := base
	windowed.Fabric.GossipWindow = 8
	if base.Fingerprint() == windowed.Fingerprint() {
		t.Fatal("gossip window is invisible to the fingerprint")
	}
	if got := base.Fabric.Canonical().GossipWindow; got != fabric.DefaultGossipWindow {
		t.Fatalf("canonical window %d, want fabric default %d", got, fabric.DefaultGossipWindow)
	}

	enc, err := EncodeSpec(windowed)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Fabric.GossipWindow != 8 {
		t.Fatalf("codec round-trip lost the window: got %d, want 8", dec.Fabric.GossipWindow)
	}

	star := base
	star.Fabric = FabricSpec{}
	if strings.Contains(star.Fingerprint(), "fabric=") {
		t.Fatal("legacy star fingerprint grew a fabric segment")
	}

	bad := FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4, GossipWindow: 1 << 17}
	if err := bad.Validate(); err == nil {
		t.Fatal("window 1<<17 accepted")
	}
}
