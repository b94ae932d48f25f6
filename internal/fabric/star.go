// The legacy single-hub star interconnect, extracted from the scenario
// runner byte-for-byte: spoke links joining node 0 to every other node, a
// paired infod daemon on each end of every spoke, and hub relaying of
// spoke-to-spoke payloads. The daemon seed stream, link construction
// order, daemon start order and estimate formulae are preserved exactly,
// so a star fabric reproduces the pre-fabric golden reports unchanged.
package fabric

import (
	"fmt"

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

	for i, node := range nodes {
		i, node := i, node
		node.Handle(func(payload any) bool {
			env, ok := payload.(*envelope)
			if !ok {
				return false
			}
			s.deliver(i, node, env)
			return true
		})
	}

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

// Kind reports the topology.
func (s *star) Kind() Kind { return KindStar }

// Send ships a payload across the star: the origin spoke to the hub,
// relayed onward to the destination spoke (deliver handles the relay).
func (s *star) Send(src, dst int, m netmodel.Message) {
	env := &envelope{src: src, dst: dst, inner: m}
	wire := netmodel.Message{Size: m.Size, Payload: env}
	s.carried += m.Size
	if src == 0 {
		s.links[dst].Send(s.nodes[0].NIC, wire)
	} else {
		s.links[src].Send(s.nodes[src].NIC, wire)
	}
}

// deliver consumes a routed payload arriving at node i: the hub relays
// spoke-to-spoke transfers onward; the destination dispatches the inner
// payload to its handler chain.
func (s *star) deliver(i int, node *cluster.Node, env *envelope) {
	if i == 0 && env.dst != 0 {
		s.carried += env.inner.Size
		s.links[env.dst].Send(s.nodes[0].NIC, netmodel.Message{Size: env.inner.Size, Payload: env})
		return
	}
	if env.dst != i {
		panic(fmt.Sprintf("fabric: payload for node %d delivered to node %d", env.dst, i))
	}
	node.Deliver(env.inner.Payload)
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
