package scenario

import (
	"math"
	"strings"
	"testing"

	"ampom/internal/fabric"
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

// TestGossipViewIncrementalMatchesRebuild is the consumer-side tentpole
// property: at every balance round, for every source node, the
// incrementally maintained gossip view (template + restore + known-set
// writes) is row-for-row identical to a from-scratch rebuild straight from
// the daemon's entries — self row exact, known rows aged at the decision
// instant, everything else the Unknown template with the cluster capacity
// and the live CPU scale.
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
	c := buildClusterSim(spec, scales, tmpl, pol, seed, 1)
	rounds := 0
	sawKnown, sawUnknownWithCap := false, false
	startChecking(t, c, func(base sched.View) {
		rounds++
		now := c.eng.Now()
		for src := 0; src < spec.Nodes; src++ {
			g := c.ic.Gossip(src)
			if g == nil {
				t.Fatal("switched fabric without a gossip daemon")
			}
			want := make([]sched.NodeView, spec.Nodes)
			for i := range want {
				if i == src {
					want[i] = base.Nodes[i]
					continue
				}
				e, ok := g.Entry(i)
				if !ok {
					want[i] = sched.NodeView{
						CPUScale:   c.nodes[i].CPUScale,
						Load:       math.Inf(1),
						CapacityMB: spec.NodeMemMB,
						Unknown:    true,
					}
					sawUnknownWithCap = sawUnknownWithCap || want[i].CapacityMB > 0
					continue
				}
				want[i] = sched.NodeView{
					Procs:      e.Sample.Queue,
					CPUScale:   base.Nodes[i].CPUScale,
					Load:       e.Sample.Load,
					UsedMemMB:  e.Sample.UsedMemMB,
					CapacityMB: spec.NodeMemMB,
					QueueLen:   e.Sample.Queue,
					InfoAge:    now.Sub(e.Stamp),
				}
				sawKnown = true
			}
			got := c.bal.gossipView(src, base)
			for i := range want {
				if got.Nodes[i] != want[i] {
					t.Fatalf("src %d row %d at %v: incremental %+v, rebuild %+v",
						src, i, now, got.Nodes[i], want[i])
				}
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
