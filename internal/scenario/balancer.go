package scenario

import (
	"math"

	"ampom/internal/cluster"
	"ampom/internal/fabric"
	"ampom/internal/infod"
	"ampom/internal/prng"
	"ampom/internal/sched"
	"ampom/internal/sim"
)

// balancer is the central balance round, run on the global engine every
// BalancePeriod. It owns the policy and its decision stream, and reads the
// live view, the nodes, the interconnect's daemons and the engine clock;
// its one effect on the simulation is migrate.
type balancer struct {
	pol  sched.BalancerPolicy
	rand *prng.Source // policy-decision stream (probabilistic policies)

	spec    Spec
	lv      *liveView
	nodes   []*cluster.Node
	ic      fabric.Interconnect
	eng     *sim.Engine
	migrate func(p *proc, src, dst int)

	// sources holds each node's gossip rows on a switched fabric, built
	// at the first hand-off; a source's View points at its entry.
	// candScratch is the per-source candidate buffer.
	sources     []gossipRows
	candScratch []*proc
}

// newBalancer builds c's balancer for pol. Each policy draws decisions from
// its own stream, a pure function of (scenario seed, policy name), so
// adding a policy to the set never perturbs another policy's run.
func newBalancer(c *clusterSim, pol sched.BalancerPolicy, seed uint64) balancer {
	return balancer{
		pol:     pol,
		rand:    prng.New(seed ^ fnvHash(pol.Name())),
		spec:    c.spec,
		lv:      c.lv,
		nodes:   c.nodes,
		ic:      c.ic,
		eng:     c.eng,
		migrate: c.migrate,
	}
}

// fnvHash is FNV-1a over s — the per-policy stream discriminator.
func fnvHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// round runs one balancing round: up to one migration per node, stopping
// at the first pass where the policy accepts nothing.
func (b *balancer) round() {
	for range b.nodes {
		if !b.balanceOnce(b.view()) {
			return
		}
	}
}

// view assembles the ground-truth picture of the cluster: per-node
// resident counts (frozen migrants count towards their destination),
// CPU-scaled loads, resident memory, and the monitoring plane's
// conservative bandwidth estimate. It refreshes the live view — only
// nodes dirtied since the last refresh are re-derived — and hands its rows
// out directly (liveView is a sched.Rows); rows are read by value, so a
// policy cannot change them. On the legacy star this is exactly what
// policies decide with; on switched fabrics it only orders the source
// scan, and decisions see gossipView instead.
func (b *balancer) view() sched.View {
	b.lv.refresh()
	return sched.View{
		Rows:          b.lv,
		BandwidthBps:  b.ic.ClusterBandwidth(),
		CostThreshold: b.spec.CostThreshold,
		Rand:          b.rand,
		SampleLen:     b.spec.LoadVectorLen,
	}
}

// gossipView is base with its rows replaced by what the source node's
// gossip daemon actually knows (see gossipRows). On the star, which runs
// no gossip, it is base.
func (b *balancer) gossipView(src int, base sched.View) sched.View {
	if b.sources == nil {
		if b.ic.Gossip(src) == nil {
			return base
		}
		b.sources = make([]gossipRows, len(b.nodes))
		for i := range b.sources {
			b.sources[i] = gossipRows{b: b, g: b.ic.Gossip(i), src: i}
		}
	}
	base.Rows = &b.sources[src]
	return base
}

// gossipRows serves node src's gossip view as sched.Rows: the node's own
// row is exact (a node always knows itself), every node its daemon holds
// a live entry for reads that aged entry, and everything else is the
// Unknown template. Staleness therefore grows with topology distance, and
// so do the policies' mistakes. Every row is read from the live view and
// the daemon when a policy asks for it, InfoAge at the decision instant,
// so a hand-off copies nothing.
type gossipRows struct {
	b   *balancer
	g   *infod.Gossip
	src int
}

// Len returns the cluster size.
func (r *gossipRows) Len() int { return len(r.b.nodes) }

// Row returns node i as src's daemon knows it.
func (r *gossipRows) Row(i int) sched.NodeView {
	b := r.b
	if i == r.src {
		return b.lv.rows[i]
	}
	e, ok := r.g.Entry(i)
	if !ok {
		return b.unknownRow(i)
	}
	return sched.NodeView{
		Procs:      e.Sample.Queue,
		CPUScale:   b.lv.rows[i].CPUScale,
		Load:       e.Sample.Load,
		UsedMemMB:  e.Sample.UsedMemMB,
		CapacityMB: b.spec.NodeMemMB,
		QueueLen:   e.Sample.Queue,
		InfoAge:    b.eng.Now().Sub(e.Stamp),
	}
}

// LeastLoaded combines the source's own row with the least loaded live
// entry its daemon holds, which the daemon memoises until its clock moves
// or a merge lands. Every other row is the infinite-load Unknown
// template, so this is a scan's answer: the lowest index at minimum load.
func (r *gossipRows) LeastLoaded() int {
	own := r.b.lv.rows[r.src].Load
	o, l, ok := r.g.LeastLoaded()
	if !ok || own < l || (own == l && r.src < o) {
		return r.src
	}
	return o
}

// unknownRow is the gossip view's template row for a node the deciding
// daemon has no live entry for: infinite load (never a load target),
// marked Unknown, but still carrying the node's CPU scale and physical
// memory — capacity is cluster configuration every node knows, so the
// memory usher sees an unknown node as unknown, not as zero-capacity.
func (b *balancer) unknownRow(i int) sched.NodeView {
	return sched.NodeView{
		CPUScale:   b.nodes[i].CPUScale,
		Load:       math.Inf(1),
		CapacityMB: b.spec.NodeMemMB,
		Unknown:    true,
	}
}

// balanceOnce offers the policy candidates — most loaded nodes first,
// longest remaining demand first — and executes the first migration it
// accepts, reporting whether one happened. base is the ground-truth view
// of this pass; on switched fabrics each source's candidates are judged
// against that source's gossip view instead. The source order is the live
// view's maintained descending-load sequence; a source with no runnable
// candidates gets no view.
func (b *balancer) balanceOnce(base sched.View) bool {
	for _, src := range b.lv.order {
		cands := b.candidatesOn(src)
		if len(cands) == 0 {
			continue
		}
		v := b.gossipView(src, base)
		for _, p := range cands {
			pv := sched.ProcView{
				ID:             p.t.id,
				Node:           src,
				Remaining:      p.remaining,
				FootprintMB:    p.footprintMB,
				WorkingSetFrac: p.t.mix.WorkingSetFrac(),
			}
			dest, ok := b.pol.ShouldMigrate(v, pv)
			if !ok || dest == src || dest < 0 || dest >= len(b.nodes) {
				continue
			}
			b.migrate(p, src, dest)
			return true
		}
	}
	return false
}

// candidatesOn returns up to sched.MaxCandidates runnable processes on
// node, longest remaining demand first (lifetime best justifies the cost,
// following Harchol-Balter & Downey), ties broken by ascending id. The
// pool is the live view's per-node list — already filtered to runnable
// residents, already in ascending id order, so insertion keeps the
// earlier id first on ties.
func (b *balancer) candidatesOn(node int) []*proc {
	top := b.candScratch[:0]
	for _, p := range b.lv.runnableOn[node] {
		at := len(top)
		for at > 0 && top[at-1].remaining < p.remaining {
			at--
		}
		if at >= sched.MaxCandidates {
			continue
		}
		top = append(top, nil)
		copy(top[at+1:], top[at:])
		top[at] = p
		if len(top) > sched.MaxCandidates {
			top = top[:sched.MaxCandidates]
		}
	}
	b.candScratch = top
	return top
}
