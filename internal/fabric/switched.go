// Switched fabrics: the two-tier rack fabric (per-rack leaf switches
// under an oversubscribed core spine) and the flat full-bisection fabric
// (one non-blocking switch). Payloads are routed store-and-forward: each
// hop is a netmodel link with its own FIFO serialisation horizon, so
// migrations, gossip and background load contend per link along the path
// — cross-rack traffic queues on the shared uplinks. Monitoring is
// decentralised gossip (infod.Gossip), one daemon per node.
package fabric

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/infod"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// prngForDaemons derives the daemon-jitter seed stream from the scenario
// seed — the exact constant the pre-fabric runner used ("oM_infod").
func prngForDaemons(seed uint64) *prng.Source { return prng.New(seed ^ 0x6f4d5f696e666f64) }

// prngForGossip derives the gossip daemons' seed stream ("oM_gossp").
func prngForGossip(seed uint64) *prng.Source { return prng.New(seed ^ 0x6f4d5f676f737370) }

// Tier indices of the switched fabrics.
const (
	tierEdge = 0
	tierCore = 1
)

// switched is a tree fabric: node vertices at the leaves, switch vertices
// above them, and static next-hop routing per destination node.
type switched struct {
	kind  Kind
	nodes []*cluster.Node

	nominal float64

	// Vertices: 0..n-1 are nodes, the rest switches. nicOf[v] is the
	// vertex's NIC (a switch shares one NIC across its links, like the
	// star hub shares the hub node's).
	nicOf []*netmodel.NIC

	links     []*netmodel.Link
	linkTier  []int
	linkBytes []int64 // carried bytes per link; TierStats sums per tier
	linkDown  []bool  // failed links refuse new traffic at the switch
	edgeLink  []int   // edgeLink[node] is the node's uplink into the fabric

	// Transit records: linkEng[li] is link li's engine, linkFrom[li] the
	// vertex at its first end, and transits[2*li] and transits[2*li+1]
	// the records of its two directions, first end first. slack is how
	// far a record's arrival must lie behind its sender's clock before
	// the sender reuses it (see transitRing).
	linkEng  []*sim.Engine
	linkFrom []int
	transits []transitRing
	slack    simtime.Duration

	// Routing state: the tree is regular enough that the next hop is
	// computed, not tabulated — a nextHop[vertex][dstNode] table costs
	// O(vertices·nodes) memory (2.2 GB at 16k nodes) for what three
	// comparisons answer.
	rackOf []int // node → rack (all zero on flat fabrics)
	uplink []int // two-tier: rack → core uplink link index
	spine  int   // two-tier core vertex, or -1

	// Sharded builds only: the sharding plan and the rack → shard map.
	shard       *Sharding
	shardOfRack []int

	// Rank counters (sharded builds): mergeRank serves Sends made while
	// the group executes a coincident instant single-threaded (the global
	// phase — migrations), preserving their initiation order; shardRank[i]
	// serves Sends made inside shard i's window, where only that shard's
	// worker touches its slot.
	mergeRank uint64
	shardRank []uint64

	tiers  []TierStats
	gossip []*infod.Gossip
}

// buildSwitched wires the two-tier or flat fabric over nodes and starts
// the gossip plane. cfg has defaults resolved.
func buildSwitched(eng *sim.Engine, nodes []*cluster.Node, cfg Config) *switched {
	n := len(nodes)
	s := &switched{
		kind:     cfg.Kind,
		nodes:    nodes,
		nominal:  cfg.Network.BandwidthBps,
		edgeLink: make([]int, n),
	}

	racks := 1
	rackOf := make([]int, n)
	if cfg.Kind == KindTwoTier {
		racks = (n + cfg.RackSize - 1) / cfg.RackSize
		for i := range rackOf {
			rackOf[i] = i / cfg.RackSize
		}
	}
	s.rackOf = rackOf

	sh := cfg.Sharding
	s.shard = sh
	if sh != nil {
		if cfg.Kind != KindTwoTier {
			panic(fmt.Sprintf("fabric: sharded build requires the two-tier topology, got %v", cfg.Kind))
		}
		if len(sh.ShardOf) != n {
			panic(fmt.Sprintf("fabric: sharding maps %d nodes, cluster has %d", len(sh.ShardOf), n))
		}
		// Shards own whole racks: a rack's leaf, edge links and uplink all
		// live on one engine, so the only cross-engine traffic is through
		// the core — the hop the lookahead window covers.
		s.shardOfRack = make([]int, racks)
		for r := range s.shardOfRack {
			s.shardOfRack[r] = sh.ShardOf[r*cfg.RackSize]
		}
		for i, si := range sh.ShardOf {
			if si < 0 || si >= len(sh.Engines) {
				panic(fmt.Sprintf("fabric: node %d assigned to shard %d of %d", i, si, len(sh.Engines)))
			}
			if si != s.shardOfRack[rackOf[i]] {
				panic(fmt.Sprintf("fabric: rack %d straddles shards %d and %d", rackOf[i], s.shardOfRack[rackOf[i]], si))
			}
		}
	}

	// Vertex layout: nodes, then leaf switches, then (two-tier) the core.
	nVerts := n + racks
	spine := -1
	if cfg.Kind == KindTwoTier {
		spine = n + racks
		nVerts++
	}
	s.spine = spine
	s.nicOf = make([]*netmodel.NIC, nVerts)
	for i, node := range nodes {
		s.nicOf[i] = node.NIC
	}
	for v := n; v < nVerts; v++ {
		v := v
		name := fmt.Sprintf("leaf%02d", v-n)
		if v == spine {
			name = "core"
		}
		nic := netmodel.NewNIC(nil)
		nic.SetHandler(func(m netmodel.Message) {
			t, ok := m.Payload.(*transit)
			if !ok {
				panic(fmt.Sprintf("fabric: switch %s received non-transit payload %T", name, m.Payload))
			}
			s.forward(v, t)
		})
		s.nicOf[v] = nic
	}

	// Edge links: every node up to its switch (its rack leaf, or the flat
	// core). Uplinks: each leaf to the core, carrying RackSize/Oversub
	// node-links' worth of bandwidth.
	s.tiers = []TierStats{{Name: "edge"}}
	addLink := func(le *sim.Engine, a, b, tier int, profile netmodel.Profile, bg float64) int {
		l := netmodel.NewLink(le, profile, s.nicOf[a], s.nicOf[b])
		l.SetBackgroundLoad(bg)
		s.links = append(s.links, l)
		s.linkTier = append(s.linkTier, tier)
		s.linkBytes = append(s.linkBytes, 0)
		s.linkDown = append(s.linkDown, false)
		s.linkEng = append(s.linkEng, le)
		s.linkFrom = append(s.linkFrom, a)
		s.transits = append(s.transits, transitRing{}, transitRing{})
		s.tiers[tier].Links++
		s.tiers[tier].CapacityBps += profile.BandwidthBps
		return len(s.links) - 1
	}
	for i := range nodes {
		up := n + rackOf[i]
		if cfg.Kind == KindFlat {
			up = n // the single switch
		}
		le := eng
		if sh != nil {
			le = sh.Engines[sh.ShardOf[i]]
		}
		s.edgeLink[i] = addLink(le, i, up, tierEdge, cfg.Network, cfg.BackgroundLoad)
	}
	s.uplink = make([]int, racks)
	if cfg.Kind == KindTwoTier {
		s.tiers = append(s.tiers, TierStats{Name: "core"})
		upProfile := cfg.Network
		upProfile.Name = fmt.Sprintf("%s-uplink", cfg.Network.Name)
		upProfile.BandwidthBps = cfg.Network.BandwidthBps * float64(cfg.RackSize) / cfg.Oversub
		for r := 0; r < racks; r++ {
			le := eng
			if sh != nil {
				le = sh.Engines[s.shardOfRack[r]]
			}
			s.uplink[r] = addLink(le, n+r, spine, tierCore, upProfile, 0)
		}
	}
	if sh != nil {
		s.wireSharding(cfg)
	}

	// Node-side delivery: a message reaching its destination dispatches
	// the payload its sender handed the fabric.
	for i, node := range nodes {
		i, node := i, node
		node.Handle(func(payload any) bool {
			t, ok := payload.(*transit)
			if !ok {
				return false
			}
			if t.to != i {
				panic(fmt.Sprintf("fabric: payload for node %d delivered to node %d", t.to, i))
			}
			node.Deliver(t.inner.Payload)
			return true
		})
	}

	// The gossip plane: one daemon per node, pushing its bounded window
	// (and answering anti-entropy pulls) through the fabric.
	gcfg := infod.GossipConfig{
		Period:    cfg.GossipPeriod,
		Fanout:    cfg.GossipFanout,
		WindowLen: cfg.GossipWindow,
	}
	grng := prngForGossip(cfg.Seed)
	store := infod.NewSampleStore(n)
	s.gossip = make([]*infod.Gossip, n)
	for i, node := range nodes {
		i := i
		s.gossip[i] = infod.NewGossip(gcfg, store, node, i, cfg.Network.BandwidthBps,
			func(dst int, m netmodel.Message) { s.Send(i, dst, m) }, grng.Uint64())
		s.gossip[i].Start()
	}
	return s
}

// wireSharding installs the cross-shard routing on a sharded two-tier
// fabric. A shard owns its racks' edge links and uplinks, so the only
// deliveries that may land on foreign state are (a) arrivals at the core,
// whose onward hop belongs to the destination rack's shard, and (b) final
// node-side deliveries of global payloads, whose handlers mutate state the
// coordinator owns. Both are staged through the group's barriers; the
// conservative lookahead (one edge latency, which every delivery pays on
// top of a positive serialisation delay) guarantees staged instants land
// strictly beyond the window they were staged in — so the group's window
// must be exactly that latency, or conservative execution is unsound.
func (s *switched) wireSharding(cfg Config) {
	sh := s.shard
	if lk := cfg.Network.LatencyOneWay; lk != sh.Group.Lookahead() {
		panic(fmt.Sprintf("fabric: lookahead %v != shard window %v", lk, sh.Group.Lookahead()))
	}
	s.shardRank = make([]uint64, len(sh.Engines))
	s.slack = sh.Group.Lookahead()
	spineNIC := s.nicOf[s.spine]
	// The core never runs events of its own under sharding, and its links'
	// senders live on different engines — it keeps no counters so that no
	// NIC has concurrent writers. Nothing in the model reads them.
	spineNIC.Quiet = true
	for r := range s.uplink {
		sr := s.shardOfRack[r]
		l := s.links[s.uplink[r]]
		l.SetDeliveryRouter(func(to *netmodel.NIC, m netmodel.Message, at simtime.Time) bool {
			if to != spineNIC {
				return false // core→leaf: the uplink already runs on the rack's shard
			}
			t, ok := m.Payload.(*transit)
			if !ok {
				panic(fmt.Sprintf("fabric: core received non-transit payload %T", m.Payload))
			}
			// The core hop, on the engine owning the destination rack's
			// links. The standard delivery bookkeeping stays dropped in the
			// same-shard case too — one behaviour for the silent core, and
			// one event per hop exactly like the sequential schedule.
			if t.run == nil {
				t.run = func() { s.forward(s.spine, t) }
			}
			sh.Group.Stage(sr, s.shardOfRack[s.rackOf[t.to]], at, t.rank, t.run)
			return true
		})
	}
	for i := range s.nodes {
		si := sh.ShardOf[i]
		nodeNIC := s.nicOf[i]
		l := s.links[s.edgeLink[i]]
		l.SetDeliveryRouter(func(to *netmodel.NIC, m netmodel.Message, at simtime.Time) bool {
			if to != nodeNIC || sh.GlobalPayload == nil {
				return false
			}
			t, ok := m.Payload.(*transit)
			if !ok || !sh.GlobalPayload(t.inner.Payload) {
				return false
			}
			// Final hop of a global payload (a migration): the restore path
			// mutates both endpoints' daemons, so the delivery — the NIC's
			// RX counters and its handlers — runs in the global phase.
			sh.Group.Stage(si, sim.GlobalShard, at, t.rank, func() { nodeNIC.Receive(m) })
			return true
		})
	}
}

// Kind reports the topology.
func (s *switched) Kind() Kind { return s.kind }

// Send routes m from node src to node dst along the tree path, one
// store-and-forward hop at a time. On sharded builds m is ranked at this
// origination point: Sends from the group's single-threaded
// coincident-instant phase draw a shared counter (their initiation
// order), Sends from inside a shard's window draw that shard's counter
// under the shard's own high bits — each counter has exactly one writer.
func (s *switched) Send(src, dst int, m netmodel.Message) {
	if src == dst {
		panic(fmt.Sprintf("fabric: send from node %d to itself", src))
	}
	t := transit{to: dst, inner: m}
	if s.shard != nil {
		if s.shard.Group.InMerge() {
			s.mergeRank++
			t.rank = s.mergeRank
		} else {
			si := s.shard.ShardOf[src]
			s.shardRank[si]++
			t.rank = 1<<63 | uint64(si)<<40 | s.shardRank[si]
		}
	}
	s.forward(src, &t)
}

// hop returns the link carrying traffic for destination node dst onward
// from vertex v: nodes forward up their edge link, the core descends into
// the destination rack, and a leaf (or the flat switch) delivers locally
// or climbs its uplink.
func (s *switched) hop(v, dst int) int {
	n := len(s.nodes)
	switch {
	case v < n:
		return s.edgeLink[v]
	case v == s.spine:
		return s.uplink[s.rackOf[dst]]
	default:
		r := v - n
		if s.kind == KindFlat || s.rackOf[dst] == r {
			return s.edgeLink[dst]
		}
		return s.uplink[r]
	}
}

// forward ships the message t carries one hop onward from vertex v, in
// a record of the next link's direction. A down link drops it at the
// switch: nothing new is serialised onto a failed hop (messages already
// on the wire when the link failed keep flowing — the per-hop granularity
// of store-and-forward). Dropped migration payloads are not lost
// processes: the runner re-verifies every in-flight migration against
// DestReachable at each topology transition and fails unroutable migrants
// back to their sources, so by the time a hop eats a freeze-time payload
// its process has already reverted.
func (s *switched) forward(v int, t *transit) {
	li := s.hop(v, t.to)
	if s.linkDown[li] {
		return
	}
	s.linkBytes[li] += t.inner.Size
	dir := 2 * li
	if v != s.linkFrom[li] {
		dir++
	}
	next := s.transits[dir].take(s.linkEng[li].Now(), s.slack)
	next.to, next.rank, next.inner = t.to, t.rank, t.inner
	next.at = s.links[li].Send(s.nicOf[v], netmodel.Message{Size: t.inner.Size, Payload: next})
}

// transit is a routed message on one link: the destination node, the
// origination rank, the message its sender handed the fabric, and the
// instant it reaches the link's far end. The link carries a pointer to
// the record as its payload, so routing allocates nothing once each link
// direction's records are warm.
//
// The rank is the sharded build's injection tie-break: assigned once at
// the originating Send, it rides every hop, so two messages marching
// through the fabric on identical timetables (same instant, same sizes,
// same link profiles) stage their deliveries in origination order — the
// order one sequential engine's insertion sequence gives them. Zero on
// unsharded builds. run forwards the record from the core when a sharded
// build stages its core hop; it is built the first time that happens.
type transit struct {
	to    int
	rank  uint64
	inner netmodel.Message
	at    simtime.Time
	run   func()
}

// transitRing is one link direction's transit records, oldest first,
// held by value so that checking and refilling a record touch one place.
// A direction delivers in FIFO order, so its oldest record is the first
// whose message the far end has handled. Its sender reuses that record
// once its arrival lies more than slack behind the sender's clock: by
// then the far end has forwarded or delivered the message and no longer
// reads the record. Slack is zero on sequential builds. On sharded builds
// it is the lookahead, because a core hop or a global payload's delivery
// runs on another engine: a window spans at most one lookahead past the
// earliest pending event, so a record that much older than the sender's
// clock was handled in an earlier window, before a barrier. The records
// never leave the link's shard.
//
// A message in flight points into the ring. Growing the ring copies the
// records into a larger array and leaves the old one to the messages
// still reading it; the copies drop their run callbacks, which point at
// the old records.
type transitRing struct {
	recs    []transit // len a power of two
	head, n int
}

// take releases the records whose messages the far end has certainly
// handled by instant now and returns the next free one for a message its
// direction sends then.
func (q *transitRing) take(now simtime.Time, slack simtime.Duration) *transit {
	for q.n > 0 && q.recs[q.head].at.Add(slack) < now {
		q.head = (q.head + 1) & (len(q.recs) - 1)
		q.n--
	}
	if q.n == len(q.recs) {
		grown := make([]transit, max(4, 2*len(q.recs)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.recs[(q.head+i)&(len(q.recs)-1)]
			grown[i].run = nil
		}
		q.recs, q.head = grown, 0
	}
	t := &q.recs[(q.head+q.n)&(len(q.recs)-1)]
	q.n++
	return t
}

// ClusterBandwidth is the tightest gossip-daemon bandwidth estimate — the
// conservative figure balancer policies decide with.
func (s *switched) ClusterBandwidth() float64 {
	bw := 0.0
	for _, g := range s.gossip {
		if b := g.Bandwidth(); b > 0 && (bw == 0 || b < bw) {
			bw = b
		}
	}
	if bw == 0 {
		bw = s.nominal
	}
	return bw
}

// PathBandwidth is the tighter of the two endpoint daemons' estimates.
func (s *switched) PathBandwidth(src, dst int) float64 {
	bw := 0.0
	for _, n := range []int{src, dst} {
		b := s.gossip[n].Bandwidth()
		if bw == 0 || b < bw {
			bw = b
		}
	}
	if bw == 0 {
		bw = s.nominal
	}
	return bw
}

// PathEstimates assembles the Eq. 3 inputs for a migration from src
// restoring on dst: the destination daemon's staleness-derived view of
// the origin (so estimates grow with topology distance), and the slower
// of the two endpoints' page-transfer estimates.
func (s *switched) PathEstimates(src, dst int) core.Estimates {
	out := s.gossip[dst].Estimates(src)
	if e := s.gossip[src].Estimates(dst); e.PageTransfer > out.PageTransfer {
		out.PageTransfer = e.PageTransfer
	}
	return out
}

// MeanRTT is the mean staleness-derived round trip across every daemon.
func (s *switched) MeanRTT() simtime.Duration {
	var sum simtime.Duration
	for _, g := range s.gossip {
		sum += g.MeanRTT()
	}
	return sum / simtime.Duration(len(s.gossip))
}

// SetBackgroundLoad sets the background-load fraction of node's edge link
// (node < 0: every edge link). Uplinks carry only modelled traffic.
func (s *switched) SetBackgroundLoad(node int, frac float64) {
	for i := range s.nodes {
		if node < 0 || node == i {
			s.links[s.edgeLink[i]].SetBackgroundLoad(frac)
		}
	}
}

// linkIndex resolves a SetLinkState selector: node >= 0 is the node's
// edge link, -(r+1) rack r's core uplink.
func (s *switched) linkIndex(node int) int {
	if node >= 0 {
		return s.edgeLink[node]
	}
	r := -node - 1
	if s.kind != KindTwoTier || r >= len(s.uplink) {
		panic(fmt.Sprintf("fabric: link selector %d addresses uplink of rack %d, which this %v fabric does not have", node, r, s.kind))
	}
	return s.uplink[r]
}

// SetLinkState marks one link up or down. State changes are global events
// (churn) executed while every shard is synchronised, so the flags are
// read race-free inside subsequent shard windows.
func (s *switched) SetLinkState(node int, up bool) {
	s.linkDown[s.linkIndex(node)] = !up
}

// PathUp reports whether every link on the src→dst path is up.
func (s *switched) PathUp(src, dst int) bool {
	return !s.linkDown[s.edgeLink[src]] && s.DestReachable(src, dst)
}

// DestReachable reports whether everything past src's edge link on the
// src→dst path is up: the destination edge plus, cross-rack on the
// two-tier, both core uplinks.
func (s *switched) DestReachable(src, dst int) bool {
	if s.linkDown[s.edgeLink[dst]] {
		return false
	}
	if s.kind == KindTwoTier && s.rackOf[src] != s.rackOf[dst] {
		return !s.linkDown[s.uplink[s.rackOf[src]]] && !s.linkDown[s.uplink[s.rackOf[dst]]]
	}
	return true
}

// Gossip returns node i's gossip daemon.
func (s *switched) Gossip(i int) *infod.Gossip { return s.gossip[i] }

// TierStats reports per-tier link counts, capacity and carried bytes.
// Bytes are kept per link (each link has exactly one writer, which is what
// lets shards account their own traffic) and summed per tier here.
func (s *switched) TierStats() []TierStats {
	out := make([]TierStats, len(s.tiers))
	copy(out, s.tiers)
	for li, b := range s.linkBytes {
		out[s.linkTier[li]].Bytes += b
	}
	return out
}
