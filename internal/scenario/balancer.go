package scenario

import (
	"math"
	"sort"

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

	// viewScratch and gvScratch are the reusable row buffers handed to
	// policies: the ground-truth copy, fully re-copied from the canonical
	// rows at every balanceOnce, and the per-source gossip view,
	// maintained incrementally — gvScratch is a persistent template of
	// Unknown rows into which each hand-off writes only the source's exact
	// row plus the rows its daemon actually knows (gvWritten records them,
	// and the next hand-off restores exactly those back to the template),
	// so a hand-off costs O(known set), not O(nodes). Policies do not
	// retain a view past ShouldMigrate (the sched.BalancerPolicy
	// contract); because nothing handed out survives a round boundary
	// unrewritten, a policy that breaks the contract and scribbles on a
	// retained slice still cannot corrupt the next round — the canonical
	// rows live in lv and are never handed out. candScratch is the
	// per-source candidate buffer.
	viewScratch []sched.NodeView
	gvScratch   []sched.NodeView
	gvWritten   []int
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
// conservative bandwidth estimate. The rows come from the live
// view — only nodes dirtied since the last round are re-derived — and are
// copied into the hand-off scratch, so the canonical rows stay private and
// a policy that wrongly retains or mutates a handed view cannot corrupt
// the next round. On the legacy star this is exactly what policies decide
// with; on switched fabrics it only orders the source scan, and decisions
// see gossipView instead.
func (b *balancer) view() sched.View {
	b.lv.refresh()
	if b.viewScratch == nil {
		b.viewScratch = make([]sched.NodeView, len(b.nodes))
	}
	copy(b.viewScratch, b.lv.rows)
	v := sched.View{
		Nodes:         b.viewScratch,
		BandwidthBps:  b.ic.ClusterBandwidth(),
		CostThreshold: b.spec.CostThreshold,
		Rand:          b.rand,
		SampleLen:     b.spec.LoadVectorLen,
	}
	// Seed LeastLoaded from the live view's sorted order instead of letting
	// the first call rescan all rows: the order is (load desc, index asc),
	// so the min-load class is the suffix and its first element is exactly
	// the scan's answer — the lowest index at minimum load. Binary search
	// finds the suffix start in O(log n).
	if n := len(b.lv.order); n > 0 {
		minLoad := b.viewScratch[b.lv.order[n-1]].Load
		p := sort.Search(n, func(i int) bool {
			return b.viewScratch[b.lv.order[i]].Load <= minLoad
		})
		v.SetLeastLoaded(b.lv.order[p])
	}
	return v
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

// rescaled follows a CPU scale change on node i: a template (Unknown) row
// in the gossip-view scratch carries the live scale, while written rows
// are restored from the live nodes at the next hand-off anyway.
func (b *balancer) rescaled(i int) {
	if b.gvScratch != nil && b.gvScratch[i].Unknown {
		b.gvScratch[i].CPUScale = b.nodes[i].CPUScale
	}
}

// gossipView rewrites the ground-truth view into what the source node's
// gossip daemon actually knows: every row the daemon holds a live entry
// for comes from that aged entry, the node's own row stays exact (a node
// always knows itself), and everything else is the Unknown template.
// Staleness therefore grows with topology distance, and so do the
// policies' mistakes.
//
// The view is maintained incrementally, mirroring the live ground-truth
// view: the scratch rows idle in the Unknown-template state, each call
// first restores the rows the previous call wrote (recorded in gvWritten)
// and then writes only the current daemon's known set — O(entries the
// daemon holds), not O(nodes), per hand-off. InfoAge is derived lazily at
// the decision instant from the entry's stamp, never stored. The write
// order inside Fresh is the daemon's cell-table order, but each callback
// touches only its own origin's row, so the resulting view is
// order-independent.
func (b *balancer) gossipView(src int, base sched.View) sched.View {
	g := b.ic.Gossip(src)
	if g == nil {
		return base
	}
	if b.gvScratch == nil {
		b.gvScratch = make([]sched.NodeView, len(base.Nodes))
		for i := range b.gvScratch {
			b.gvScratch[i] = b.unknownRow(i)
		}
		b.gvWritten = make([]int, 0, len(base.Nodes))
	}
	for _, i := range b.gvWritten {
		b.gvScratch[i] = b.unknownRow(i)
	}
	b.gvWritten = b.gvWritten[:0]

	v := base
	v.Nodes = b.gvScratch
	now := b.eng.Now()
	b.gvScratch[src] = base.Nodes[src]
	b.gvWritten = append(b.gvWritten, src)
	// Seed LeastLoaded while writing: every unwritten row is the
	// infinite-load Unknown template, so the argmin over written rows —
	// lowest index on load ties, matching the scan's order — is the scan's
	// answer, and the O(nodes) pass per hand-off disappears.
	bestO, bestL := src, base.Nodes[src].Load
	g.Fresh(func(o int, e infod.GossipEntry) {
		if o == src {
			return
		}
		b.gvScratch[o] = sched.NodeView{
			Procs:      e.Sample.Queue,
			CPUScale:   base.Nodes[o].CPUScale,
			Load:       e.Sample.Load,
			UsedMemMB:  e.Sample.UsedMemMB,
			CapacityMB: b.spec.NodeMemMB,
			QueueLen:   e.Sample.Queue,
			InfoAge:    now.Sub(e.Stamp),
		}
		b.gvWritten = append(b.gvWritten, o)
		if l := e.Sample.Load; l < bestL || (l == bestL && o < bestO) {
			bestO, bestL = o, l
		}
	})
	v.SetLeastLoaded(bestO)
	return v
}

// balanceOnce offers the policy candidates — most loaded nodes first,
// longest remaining demand first — and executes the first migration it
// accepts, reporting whether one happened. base is the ground-truth view
// of this pass; on switched fabrics each source's candidates are judged
// against that source's gossip view instead. The source order is the live
// view's maintained descending-load sequence, and sources with no runnable
// candidates skip the per-source view build entirely.
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
