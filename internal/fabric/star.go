// The legacy single-hub star interconnect, extracted from the scenario
// runner byte-for-byte: spoke links joining node 0 to every other node, a
// paired infod daemon on each end of every spoke, and hub relaying of
// spoke-to-spoke payloads. The daemon seed stream, link construction
// order, daemon start order and estimate formulae are preserved exactly,
// so a star fabric reproduces the pre-fabric golden reports unchanged.
package fabric

import (
	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/infod"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// star is the hub-spoke interconnect with paired daemons.
type star struct {
	nodes []*cluster.Node
	links []*netmodel.Link // links[i] joins node 0 and node i; links[0] is nil
	spoke []*infod.Daemon  // spoke[i] lives on node i; spoke[0] is nil
	head  []*infod.Daemon  // head[i] is node 0's daemon for spoke i

	nominal float64
	carried int64 // payload bytes carried, every hop counted
}

// buildStar wires the star exactly as the scenario runner historically
// did: same link order, same daemon-jitter seed stream, same start order.
func buildStar(eng *sim.Engine, nodes []*cluster.Node, cfg Config) *star {
	n := len(nodes)
	s := &star{
		nodes:   nodes,
		links:   make([]*netmodel.Link, n),
		spoke:   make([]*infod.Daemon, n),
		head:    make([]*infod.Daemon, n),
		nominal: cfg.Network.BandwidthBps,
	}

	// One daemon router per node, however many spoke daemons the hub
	// runs; the hub then relays spoke-to-spoke payloads (relay), tried
	// after its daemons' far more frequent exchanges.
	for _, node := range nodes {
		node.Handle(infod.Route)
	}
	nodes[0].Handle(func(payload any) bool {
		env, ok := payload.(*envelope)
		if ok {
			s.relay(env)
		}
		return ok
	})

	// Daemon jitter seeds come from a stream derived from the scenario
	// seed, so every policy observes identical daemon behaviour.
	drng := prngForDaemons(cfg.Seed)
	for i := 1; i < n; i++ {
		s.links[i] = netmodel.NewLink(eng, cfg.Network, nodes[0].NIC, nodes[i].NIC)
		s.links[i].SetBackgroundLoad(cfg.BackgroundLoad)
		s.head[i] = infod.New(2*simtime.Second, nodes[0], s.links[i], drng.Uint64())
		s.spoke[i] = infod.New(2*simtime.Second, nodes[i], s.links[i], drng.Uint64())
		infod.Pair(s.head[i], s.spoke[i])
		s.head[i].Start()
		s.spoke[i].Start()
	}
	return s
}

// Send ships a payload across the star: a hop to or from the hub carries
// m itself; a spoke-to-spoke payload reaches the hub in an envelope naming
// its destination, and the hub relays m onward (relay).
func (s *star) Send(src, dst int, m netmodel.Message) {
	s.carried += m.Size
	switch {
	case src == 0:
		s.links[dst].Send(s.nodes[0].NIC, m)
	case dst == 0:
		s.links[src].Send(s.nodes[src].NIC, m)
	default:
		s.links[src].Send(s.nodes[src].NIC, netmodel.Message{Size: m.Size, Payload: &envelope{dst: dst, inner: m}})
	}
}

// relay forwards a spoke-to-spoke payload from the hub to its destination
// spoke, which receives the sender's message itself.
func (s *star) relay(env *envelope) {
	s.carried += env.inner.Size
	s.links[env.dst].Send(s.nodes[0].NIC, env.inner)
}

// ClusterBandwidth is the tightest spoke-daemon bandwidth estimate — the
// conservative figure the balancer decides with, since it does not yet
// know which pair of nodes a migration will cross.
func (s *star) ClusterBandwidth() float64 {
	bw := 0.0
	for i := 1; i < len(s.nodes); i++ {
		if b := s.spoke[i].Bandwidth(); b > 0 && (bw == 0 || b < bw) {
			bw = b
		}
	}
	if bw == 0 {
		bw = s.nominal
	}
	return bw
}

// PathBandwidth returns the monitoring daemons' view of the available
// bandwidth on the src→dst path (the tighter spoke wins).
func (s *star) PathBandwidth(src, dst int) float64 {
	bw := 0.0
	for _, n := range []int{src, dst} {
		if n == 0 {
			continue
		}
		b := s.spoke[n].Bandwidth()
		if bw == 0 || b < bw {
			bw = b
		}
	}
	if bw == 0 {
		bw = s.nominal
	}
	return bw
}

// PathEstimates assembles the Eq. 3 inputs for a migration path: the
// spoke RTTs add (two hops through the hub), the slower page transfer
// wins.
func (s *star) PathEstimates(src, dst int) core.Estimates {
	var out core.Estimates
	for _, n := range []int{src, dst} {
		if n == 0 {
			continue
		}
		e := s.spoke[n].Estimates()
		out.RTT += e.RTT
		if e.PageTransfer > out.PageTransfer {
			out.PageTransfer = e.PageTransfer
		}
	}
	return out
}

// MeanRTT is the mean spoke-daemon RTT estimate.
func (s *star) MeanRTT() simtime.Duration {
	var rtt simtime.Duration
	for i := 1; i < len(s.nodes); i++ {
		rtt += s.spoke[i].RTT()
	}
	return rtt / simtime.Duration(len(s.nodes)-1)
}

// SetBackgroundLoad sets the background-load fraction of node's spoke
// (node < 0: every spoke). The hub has no spoke of its own.
func (s *star) SetBackgroundLoad(node int, frac float64) {
	for i := 1; i < len(s.nodes); i++ {
		if node < 0 || node == i {
			s.links[i].SetBackgroundLoad(frac)
		}
	}
}

// SetLinkState is unreachable on the star: spec validation rejects
// failure events on the hub-spoke legacy fabric, which has no link state.
func (s *star) SetLinkState(node int, up bool) {
	panic("fabric: the star fabric has no link state")
}

// PathUp reports every path up: the star never fails links.
func (s *star) PathUp(src, dst int) bool { return true }

// DestReachable reports every destination reachable on the star.
func (s *star) DestReachable(src, dst int) bool { return true }

// Gossip reports no gossip daemons: the star runs paired monitoring.
func (s *star) Gossip(int) *infod.Gossip { return nil }

// TierStats reports the single spoke tier.
func (s *star) TierStats() []TierStats {
	n := len(s.nodes)
	return []TierStats{{
		Name:        "star",
		Links:       n - 1,
		CapacityBps: float64(n-1) * s.nominal,
		Bytes:       s.carried,
	}}
}
