package scenario

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/fabric"
	"ampom/internal/infod"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/sched"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// procTemplate is one pre-drawn process. Templates are drawn once per
// (Spec, seed) and replayed identically under every policy, so cross-policy
// comparisons hold the workload fixed — the same discipline the campaign
// engine applies to cross-scheme migration experiments.
type procTemplate struct {
	id          int
	demand      simtime.Duration
	footprintMB int64
	mix         MixKind
	node        int
	arriveAt    simtime.Time
	traceSeed   uint64
}

// buildWorkload draws the node CPU scales and every process (including the
// churn bursts) from one PRNG stream in a fixed order.
func buildWorkload(spec Spec, seed uint64) (scales []float64, procs []procTemplate) {
	rng := prng.New(seed)

	// Node tiers: the slow and fast nodes are scattered deterministically.
	scales = make([]float64, spec.Nodes)
	for i := range scales {
		scales[i] = 1
	}
	nSlow := int(spec.SlowFrac * float64(spec.Nodes))
	nFast := int(spec.FastFrac * float64(spec.Nodes))
	perm := rng.Perm(spec.Nodes)
	for i := 0; i < nSlow && i < len(perm); i++ {
		scales[perm[i]] = spec.SlowScale
	}
	for i := 0; i < nFast && nSlow+i < len(perm); i++ {
		scales[perm[nSlow+i]] = spec.FastScale
	}

	mix := spec.sortedMix()
	draw := func(id, node int, at simtime.Time) procTemplate {
		// The PRNG draw order (demand, footprint, mix, trace seed) is
		// golden-locked; keep it when editing.
		demand := simtime.Duration(float64(spec.MeanCompute) * (0.25 + 1.5*rng.Float64()))
		// mean/2 + Uint64n(mean) is in [mean/2, 3·mean/2) — strictly
		// positive except at the degenerate mean of 1 MB, where 0/2 +
		// Uint64n(1) draws a 0 MB process that mem-aware policies would
		// migrate for free. Clamp only that case so every other mean keeps
		// its historical draws (goldens depend on them).
		footprint := spec.MeanFootprintMB/2 + int64(rng.Uint64n(uint64(spec.MeanFootprintMB)))
		if footprint < 1 {
			footprint = 1
		}
		t := procTemplate{
			id:          id,
			demand:      demand,
			footprintMB: footprint,
			mix:         drawMix(mix, rng),
			node:        node,
			arriveAt:    at,
			traceSeed:   rng.Uint64(),
		}
		return t
	}
	place := func(i int) int {
		if spec.Placement == PlaceRoundRobin {
			return i % spec.Nodes
		}
		if rng.Float64() < spec.Skew {
			return 0
		}
		return rng.Intn(spec.Nodes)
	}

	var at simtime.Time
	for i := 0; i < spec.Procs; i++ {
		if spec.Arrival == ArrivalPoisson && i > 0 {
			at = at.Add(simtime.Duration(rng.ExpFloat64() * float64(spec.MeanInterarrival)))
		}
		procs = append(procs, draw(i, place(i), at))
	}
	for _, c := range spec.Churn {
		if c.Kind != ChurnBurst {
			continue
		}
		for i := 0; i < c.Procs; i++ {
			procs = append(procs, draw(len(procs), c.Node, simtime.Time(c.At)))
		}
	}
	return scales, procs
}

// proc is one process's live state during a policy run. state and node
// are written only by clusterSim.transition once the process is built.
type proc struct {
	t           procTemplate
	remaining   simtime.Duration
	footprintMB int64 // live footprint: balloon churn grows it mid-run
	state       procState
	node        int

	// Failure-plane state. from is the source node of the migration in
	// progress (the fail-back target while frozen); seq is bumped at every
	// migrate and fail-back, so a payload delivery or scheduled unfreeze
	// carrying a stale seq is a no-op.
	from int
	seq  uint64

	freezeStart simtime.Time
	finishAt    simtime.Time
}

// procState is a process's place in its lifecycle. A migration ends in
// exactly one of two ways — restored at the destination or failed back to
// its source — so the states and legalEdges below are the whole protocol
// (docs/failures.md draws the diagram).
type procState uint8

const (
	procPending   procState = iota // not yet arrived
	procRunning                    // runnable on its node
	procSuspended                  // resident on a crashed node until recovery
	procInFlight                   // frozen, payload on the wire to its node
	procRestoring                  // frozen, payload delivered, unfreeze scheduled
	procDone                       // completed
)

var procStateNames = [...]string{"pending", "running", "suspended", "in-flight", "restoring", "done"}

func (s procState) String() string { return procStateNames[s] }

// resident states occupy their node: they count in the live view's
// mem/liveOn (a frozen migrant belongs to its destination). Only
// running ones are runnable.
func (s procState) resident() bool { return s != procPending && s != procDone }
func (s procState) running() bool  { return s == procRunning }

// legalEdges[from] is the set of states from may move to, as a bit mask.
var legalEdges = [...]uint8{
	procPending:   1<<procRunning | 1<<procSuspended,
	procRunning:   1<<procSuspended | 1<<procInFlight | 1<<procDone,
	procSuspended: 1 << procRunning,
	procInFlight:  1<<procRestoring | 1<<procRunning | 1<<procSuspended,
	procRestoring: 1<<procRunning | 1<<procSuspended,
	procDone:      0,
}

// transition moves p to state to on node and applies the move to the live
// view. After construction it is the only writer of p.state and p.node;
// an edge outside legalEdges is a runner bug and panics.
func (c *clusterSim) transition(p *proc, to procState, node int) {
	from, was := p.state, p.node
	if legalEdges[from]&(1<<to) == 0 {
		panic(fmt.Sprintf("scenario: process %d: illegal transition %v -> %v", p.t.id, from, to))
	}
	p.state, p.node = to, node
	c.lv.move(p, from, was)
}

// migMsg is the freeze-time payload of one migration in flight across the
// interconnect; the fabric routes it along the topology path. seq snapshots
// the migrant's migration sequence at send time: a fail-back bumps the
// sequence, so a payload that outlives its migration (crash or link failure
// bounced the migrant while the bytes were in flight) arrives stale and is
// ignored.
type migMsg struct {
	pid  int
	seq  uint64
	dest int
}

// clusterSim is one policy's end-to-end simulation.
type clusterSim struct {
	spec  Spec
	pol   sched.BalancerPolicy
	prand *prng.Source // policy-decision stream (probabilistic policies)

	eng   *sim.Engine
	nodes []*cluster.Node
	ic    fabric.Interconnect

	// Sharded runs: the per-shard engines (each owning a contiguous band
	// of racks), the node → shard map and the conservative window
	// coordinator. An effective shard count of 1 leaves them nil and runs
	// the classic sequential engine — and every shard count produces a
	// byte-identical report (the contract the shard goldens pin).
	shards  int
	shardOf []int
	engines []*sim.Engine
	group   *sim.ShardGroup

	// The quantum tick runs per band of nodes. Star and flat fabrics have
	// one band spanning the cluster; two-tier fabrics have one band per
	// rack. Bands are fixed by the spec — never by the shard count — so the
	// event population, and with it st.Events and every report byte, is
	// identical at every shard count. bandEng[b] is the engine owning band
	// b's nodes (the global engine on sequential runs); doneBy[b]
	// accumulates band b's completions. split (two-tier) gives every band
	// its own event plus a global epilogue; otherwise one fused event ticks
	// every band and closes the quantum (scheduleTick).
	bands     int
	bandLo    []int // bandLo[b] is band b's first node; band b ends at bandLo[b+1]
	bandEng   []*sim.Engine
	doneBy    []int
	split     bool
	bandTicks []func() // bandTicks[b] ticks band b; built once so re-arming allocates no closure
	endTick   func()   // endQuantum, bound once for the same reason

	procs   []*proc
	horizon simtime.Time

	// lv is the incrementally maintained ground-truth view: per-node
	// aggregates, candidate lists and the descending-load source order,
	// updated O(1) at every arrival/completion/freeze/migration/balloon
	// event instead of rebuilt O(nodes+procs) per balance decision.
	lv *liveView

	// viewScratch and gvScratch are the reusable row buffers handed to
	// policies: the ground-truth copy, fully re-copied from the canonical
	// rows at every balance round, and the per-source gossip view,
	// maintained incrementally — gvScratch is a persistent template of
	// Unknown rows into which each hand-off writes only the source's exact
	// row plus the rows its daemon actually knows (gvWritten records them,
	// and the next hand-off restores exactly those back to the template),
	// so a hand-off costs O(known set), not O(nodes). Policies do not
	// retain a view past ShouldMigrate (the sched.BalancerPolicy
	// contract); because nothing handed out survives a round boundary
	// unrewritten, a policy that breaks the contract and scribbles on a
	// retained slice still cannot corrupt the next round — the canonical
	// rows live in lv and are never handed out.
	viewScratch []sched.NodeView
	gvScratch   []sched.NodeView
	gvWritten   []int

	// llBase and llGossip are the LeastLoaded memo cells of the two
	// hand-off views, reset at each hand-off.
	llBase, llGossip int

	// candScratch is the per-decision candidate reuse buffer.
	candScratch []*proc

	// crashed marks the nodes currently down. Crash and recovery are global
	// (merge-phase) events; shard events only read the flags, and the window
	// barriers order those reads against the writes, so every shard count
	// observes identical node liveness at identical virtual instants.
	crashed []bool

	// checkView, when set (tests only), observes every balance round's
	// ground-truth view right after the incremental refresh — the hook the
	// live-view-vs-rebuild property test and the retention tests use.
	checkView func(base sched.View)

	// censusSeen and censusArrived are the prefetch census's per-page
	// flags, grown to the largest working set and cleared per migration.
	// One pair suffices: restore, the census's only caller, runs on the
	// global engine.
	censusSeen, censusArrived []bool

	st SchemeStats
}

// shardPlan resolves the effective shard count and the node → shard map
// for a spec. Sharding requires the two-tier fabric — shards own whole
// racks and exchange only through the core, the hop whose latency is the
// conservative lookahead — so every other topology (and a degenerate
// latency) clamps to the sequential count of 1. Racks map to shards in
// contiguous bands, at most one shard per rack.
func shardPlan(spec Spec, shards int) (int, []int) {
	f := spec.Fabric.Canonical()
	if shards <= 1 || f.Topology != fabric.KindTwoTier || spec.Network.LatencyOneWay <= 0 {
		return 1, nil
	}
	racks := (spec.Nodes + f.RackSize - 1) / f.RackSize
	if shards > racks {
		shards = racks
	}
	if shards <= 1 {
		return 1, nil
	}
	shardOf := make([]int, spec.Nodes)
	for i := range shardOf {
		shardOf[i] = (i / f.RackSize) * shards / racks
	}
	return shards, shardOf
}

// shardWorkers reports whether sharded windows should run on goroutines.
// Both modes execute the identical schedule; inline execution just skips
// the goroutine overhead where no parallel hardware would repay it.
func shardWorkers() bool { return runtime.GOMAXPROCS(0) > 1 }

// newClusterSimShards wires the cluster (buildClusterSim) and schedules
// its first quantum and balance round (start).
func newClusterSimShards(spec Spec, scales []float64, tmpl []procTemplate, pol sched.BalancerPolicy, seed uint64, shards int) *clusterSim {
	c := buildClusterSim(spec, scales, tmpl, pol, seed, shards)
	c.start()
	return c
}

// buildClusterSim wires the cluster: nodes, the interconnect fabric with
// its monitoring plane, the migration payload handlers, arrivals, churn
// and the tick bands. With an effective shard count above 1 each
// rack band's nodes, links and gossip daemons live on a shard engine and
// the run advances through conservative lookahead windows; the global
// engine keeps everything cross-shard (ticks, balancing, migrations).
func buildClusterSim(spec Spec, scales []float64, tmpl []procTemplate, pol sched.BalancerPolicy, seed uint64, shards int) *clusterSim {
	c := &clusterSim{
		spec: spec,
		pol:  pol,
		// Each policy draws decisions from its own stream, a pure function
		// of (scenario seed, policy name), so adding a policy to the set
		// never perturbs another policy's run.
		prand:   prng.New(seed ^ fnvHash(pol.Name())),
		eng:     sim.New(),
		horizon: simtime.Time(spec.MaxSimTime),
		st:      SchemeStats{Policy: pol.Name()},
	}

	c.shards, c.shardOf = shardPlan(spec, shards)
	if c.shards > 1 {
		c.engines = make([]*sim.Engine, c.shards)
		for i := range c.engines {
			c.engines[i] = sim.New()
		}
		c.group = sim.NewShardGroup(c.eng, c.engines, spec.Network.LatencyOneWay, shardWorkers())
	}
	engOf := func(node int) *sim.Engine {
		if c.group == nil {
			return c.eng
		}
		return c.engines[c.shardOf[node]]
	}

	c.nodes = make([]*cluster.Node, spec.Nodes)
	for i := range c.nodes {
		c.nodes[i] = cluster.NewNode(engOf(i), fmt.Sprintf("n%03d", i), scales[i])
		node := i
		c.nodes[i].Handle(func(payload any) bool {
			m, ok := payload.(migMsg)
			if !ok {
				return false
			}
			c.deliver(node, m)
			return true
		})
	}
	c.lv = newLiveView(c.nodes, spec.NodeMemMB, c.shardOf, c.shards)
	c.crashed = make([]bool, spec.Nodes)

	// The interconnect: topology, per-link queues and the monitoring
	// plane (paired daemons on the star, gossip on switched fabrics). Its
	// internal seed streams derive from the scenario seed, so every
	// policy observes identical daemon behaviour.
	f := spec.Fabric.Canonical()
	var shcfg *fabric.Sharding
	if c.group != nil {
		shcfg = &fabric.Sharding{
			ShardOf: c.shardOf,
			Engines: c.engines,
			Group:   c.group,
			// Migration payloads restore through both endpoints' daemons,
			// so their final delivery belongs to the global phase.
			GlobalPayload: func(p any) bool { _, ok := p.(migMsg); return ok },
		}
	}
	c.ic = fabric.Build(c.eng, c.nodes, fabric.Config{
		Kind:           f.Topology,
		RackSize:       f.RackSize,
		Oversub:        f.Oversub,
		GossipFanout:   f.GossipFanout,
		GossipPeriod:   f.GossipPeriod,
		GossipWindow:   f.GossipWindow,
		Network:        spec.Network,
		BackgroundLoad: spec.BackgroundLoad,
		Seed:           seed,
		Sharding:       shcfg,
	})
	if c.group != nil {
		// The group's window bound and the fabric's declared minimum
		// cross-shard latency must agree, or conservative execution is
		// unsound.
		lk := c.ic.(interface{ Lookahead() simtime.Duration }).Lookahead()
		if lk != c.group.Lookahead() {
			panic(fmt.Sprintf("scenario: fabric lookahead %v != shard window %v", lk, c.group.Lookahead()))
		}
	}
	for i := 0; i < spec.Nodes; i++ {
		if g := c.ic.Gossip(i); g != nil {
			g.SetProbe(c.probeFor(i))
		}
	}

	c.procs = make([]*proc, len(tmpl))
	for i, t := range tmpl {
		p := &proc{
			t:           t,
			remaining:   t.demand,
			footprintMB: t.footprintMB,
			node:        t.node,
		}
		c.procs[i] = p
		// Arrival is a shard event: it touches only the template node's
		// slice of the live view (a process cannot have migrated before it
		// arrived).
		engOf(t.node).At(t.arriveAt, func() {
			// An arrival on a crashed node parks until recovery — the node
			// admits the process (it is resident) but cannot run it. The
			// crash flags are written only by barrier-separated global
			// events.
			to := procRunning
			if c.crashed[p.node] {
				to = procSuspended
			}
			c.transition(p, to, p.node)
		})
	}

	for _, ev := range spec.Churn {
		ev := ev
		switch ev.Kind {
		case ChurnSlowNode:
			c.eng.Schedule(ev.At, func() {
				c.nodes[ev.Node].CPUScale *= ev.Factor
				c.lv.touch(ev.Node)
				// A template (Unknown) row in the gossip-view scratch
				// carries the live CPU scale; written rows are restored
				// from the live nodes at the next hand-off anyway.
				if c.gvScratch != nil && c.gvScratch[ev.Node].Unknown {
					c.gvScratch[ev.Node].CPUScale = c.nodes[ev.Node].CPUScale
				}
			})
		case ChurnNetLoad:
			c.eng.Schedule(ev.At, func() { c.ic.SetBackgroundLoad(ev.Node, ev.Factor) })
		case ChurnBalloon:
			c.eng.Schedule(ev.At, func() { c.balloon(ev) })
		case ChurnBurst:
			// Burst processes were pre-drawn into the templates.
		case ChurnNodeCrash:
			c.eng.Schedule(ev.At, func() { c.crash(ev.Node) })
		case ChurnNodeRecover:
			c.eng.Schedule(ev.At, func() { c.recover(ev.Node) })
		case ChurnLinkDown:
			c.eng.Schedule(ev.At, func() { c.linkState(ev.Node, false) })
		case ChurnLinkUp:
			c.eng.Schedule(ev.At, func() { c.linkState(ev.Node, true) })
		}
	}

	// Tick bands. Two-tier bands follow the spec's rack geometry, not the
	// shard plan, and split the tick whatever their count: a sequential
	// run schedules the same sub-events on its one engine, so every shard
	// count replays the identical event population.
	c.bands = 1
	size := spec.Nodes
	if f.Topology == fabric.KindTwoTier {
		c.bands = (spec.Nodes + f.RackSize - 1) / f.RackSize
		size = f.RackSize
		c.split = true
	}
	c.bandLo = make([]int, c.bands+1)
	c.bandEng = make([]*sim.Engine, c.bands)
	c.bandTicks = make([]func(), c.bands)
	c.doneBy = make([]int, c.bands)
	for b := 0; b < c.bands; b++ {
		b := b
		c.bandLo[b] = b * size
		c.bandEng[b] = engOf(c.bandLo[b])
		c.bandTicks[b] = func() { c.tickBand(b) }
	}
	c.bandLo[c.bands] = spec.Nodes
	c.endTick = c.endQuantum
	return c
}

// start schedules the first quantum tick and, unless the policy never
// migrates, the balance ticker. Both come after every arrival and churn
// event, in this order: sequence numbers break ties between coincident
// events, and the goldens pin the resulting event order.
func (c *clusterSim) start() {
	c.scheduleTick(simtime.Time(c.spec.Quantum))
	if c.pol.Name() != sched.BaselineName {
		sim.NewTicker(c.eng, c.spec.BalancePeriod, c.balance)
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

// probeFor is node i's local load probe, sampled by its gossip daemon at
// every push round. The counts mirror the balancer view: frozen migrants
// belong to their destination node. The probe reads the live aggregates —
// O(1) where it used to scan every process per push round per node, the
// other half of the O(procs) bookkeeping the incremental view removes.
func (c *clusterSim) probeFor(i int) func() infod.LoadSample {
	return func() infod.LoadSample {
		s := infod.LoadSample{
			Queue:     len(c.lv.liveOn[i]),
			UsedMemMB: c.lv.mem[i],
		}
		s.Load = float64(s.Queue) / c.nodes[i].CPUScale
		return s
	}
}

// balloon grows the memory footprint of the largest live process on the
// event's node (ties to the lowest id) by the event factor — a data set
// expanding mid-run. With nothing live on the node the event is a no-op.
// The scan is the live view's per-node resident list, not the global
// process slice; it must be liveOn, not runnableOn, because a frozen
// in-migrant is a balloon target too (the footprint lives where the
// process is resident), and the list's ascending id order with a strict
// comparison reproduces the global scan's lowest-id tie-break.
func (c *clusterSim) balloon(ev ChurnEvent) {
	var target *proc
	for _, p := range c.lv.liveOn[ev.Node] {
		if target == nil || p.footprintMB > target.footprintMB {
			target = p
		}
	}
	if target == nil {
		return
	}
	was := target.footprintMB
	target.footprintMB = int64(float64(target.footprintMB) * ev.Factor)
	if target.footprintMB < 1 {
		target.footprintMB = 1
	}
	c.lv.memDelta(target.node, target.footprintMB-was)
}

// run executes the simulation to completion (or the horizon) and finalises
// the statistics.
func (c *clusterSim) run() SchemeStats {
	var end simtime.Time
	if c.group != nil {
		end = c.group.Run(c.horizon)
	} else {
		end = c.eng.Run(c.horizon)
	}
	if c.st.Makespan == 0 {
		c.st.Makespan = simtime.Duration(end)
	}

	// Sojourn latencies (arrival → completion) feed the SLO percentiles,
	// but only on specs that exercise the failure plane: legacy reports
	// keep their exact shape, and the collection cost stays off the
	// fast path.
	var sojourns []simtime.Duration
	collect := c.spec.HasFailures()
	var slow float64
	for _, p := range c.procs {
		switch p.state {
		case procDone:
			slow += float64(p.finishAt.Sub(p.t.arriveAt)) / float64(p.t.demand)
			if collect {
				sojourns = append(sojourns, p.finishAt.Sub(p.t.arriveAt))
			}
		case procPending:
			c.st.Unfinished++
			slow += 1
		default:
			c.st.Unfinished++
			slow += float64(end.Sub(p.t.arriveAt)) / float64(p.t.demand)
		}
	}
	c.st.MeanSlowdown = slow / float64(len(c.procs))
	if len(sojourns) > 0 {
		sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
		c.st.SojournP50 = sojournPercentile(sojourns, 50)
		c.st.SojournP95 = sojournPercentile(sojourns, 95)
		c.st.SojournP99 = sojournPercentile(sojourns, 99)
	}

	c.st.FinalRTT = c.ic.MeanRTT()
	// Every sequential event maps one-to-one onto a shard or global event
	// (routed deliveries replace, never add), so the sum reproduces the
	// sequential count exactly.
	if c.group != nil {
		c.st.Events = c.group.Processed()
	} else {
		c.st.Events = c.eng.Processed
	}
	// Tier utilisation is a switched-fabric artefact; legacy star reports
	// keep their pre-fabric shape.
	if !c.spec.Fabric.IsDefault() {
		c.st.TierUse = c.ic.TierStats()
	}
	if c.group != nil {
		c.st.Sharding = &ShardStats{
			Shards:  c.shards,
			Workers: shardWorkers(),
			Group:   c.group.Stats(),
		}
	}
	return c.st
}

// tickNode advances one quantum on node i's runnable residents and
// reports how many of them completed. The share divisor is the node's
// runnable population when its quantum fires: completions during the loop
// shrink the list but must not perturb later shares, and no tick ever
// touches another node's counters, so the single up-front read equals a
// whole-cluster pre-scan.
func (c *clusterSim) tickNode(i int, now simtime.Time) (done int) {
	cnt := len(c.lv.runnableOn[i])
	if cnt == 0 {
		return 0
	}
	share := simtime.Duration(float64(c.spec.Quantum) * c.nodes[i].CPUScale / float64(cnt))
	// Completion removes the process from the list in place (it is always
	// at the cursor — the list stays in ascending id order), so the cursor
	// only advances past survivors.
	for k := 0; k < len(c.lv.runnableOn[i]); {
		p := c.lv.runnableOn[i][k]
		p.remaining -= share
		if p.remaining <= 0 {
			p.finishAt = now.Add(c.spec.Quantum)
			done++
			c.transition(p, procDone, i)
			continue
		}
		k++
	}
	return done
}

// tickEpilogueLag is the global aggregation event's offset past the band
// ticks' instant. Virtual time is integer nanoseconds, so no event can
// fire strictly between kQ and kQ+1ns: the epilogue observes exactly the
// post-tick state, yet — unlike a global event at kQ itself — it leaves
// the band ticks inside the window's parallel shard phase instead of
// dragging them into the single-threaded coincident instant.
const tickEpilogueLag = simtime.Nanosecond

// scheduleTick schedules quantum at's tick. A split run schedules one
// event per band, each on the engine owning the band, plus the global
// epilogue one nanosecond later; ascending band order on every engine
// mirrors the coordinator's shards-first, ascending-index interleave at
// coincident instants, which is how a sharded run replays the sequential
// schedule. Otherwise one fused event at the instant itself ticks every
// band and closes the quantum.
func (c *clusterSim) scheduleTick(at simtime.Time) {
	if c.split {
		for b := 0; b < c.bands; b++ {
			c.bandEng[b].At(at, c.bandTicks[b])
		}
		at = at.Add(tickEpilogueLag)
	}
	c.eng.At(at, c.endTick)
}

// tickBand advances one quantum on one band's nodes. On a split run it
// runs on the band's owning engine inside the window's parallel phase and
// touches only band-local state: its nodes' processes, their live-view
// slices and the band's completion counter.
func (c *clusterSim) tickBand(b int) {
	now := c.bandEng[b].Now()
	done := 0
	for i := c.bandLo[b]; i < c.bandLo[b+1]; i++ {
		done += c.tickNode(i, now)
	}
	c.doneBy[b] += done
}

// endQuantum is the global event closing a quantum: the fused tick, or a
// split run's epilogue. It re-arms the next quantum first, runs the bands
// if the tick is fused, then stops the run once the bands' completion
// counters cover every process. The epilogue is the split tick's only
// global event — the window barrier separating it from the band ticks is
// what makes their doneBy writes visible here.
func (c *clusterSim) endQuantum() {
	at := c.eng.Now()
	if c.split {
		at = at.Add(-tickEpilogueLag)
	}
	c.scheduleTick(at.Add(c.spec.Quantum))
	if !c.split {
		for b := 0; b < c.bands; b++ {
			c.tickBand(b)
		}
	}
	done := 0
	for _, n := range c.doneBy {
		done += n
	}
	if done == len(c.procs) {
		c.st.Makespan = simtime.Duration(at.Add(c.spec.Quantum))
		c.eng.Stop()
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
// with; on switched fabrics it only orders the driver's source scan, and
// decisions see gossipView instead.
func (c *clusterSim) view() sched.View {
	c.lv.refresh()
	if c.viewScratch == nil {
		c.viewScratch = make([]sched.NodeView, c.spec.Nodes)
	}
	copy(c.viewScratch, c.lv.rows)
	v := sched.View{
		Nodes:         c.viewScratch,
		BandwidthBps:  c.ic.ClusterBandwidth(),
		CostThreshold: c.spec.CostThreshold,
		Rand:          c.prand,
		SampleLen:     c.spec.LoadVectorLen,
	}
	v.CacheLeastLoaded(&c.llBase)
	// Seed the memo from the live view's sorted order instead of letting
	// the first LeastLoaded call rescan all rows: the order is (load desc,
	// index asc), so the min-load class is the suffix and its first
	// element is exactly the scan's answer — the lowest index at minimum
	// load. Binary search finds the suffix start in O(log n).
	if n := len(c.lv.order); n > 0 {
		minLoad := c.viewScratch[c.lv.order[n-1]].Load
		p := sort.Search(n, func(i int) bool {
			return c.viewScratch[c.lv.order[i]].Load <= minLoad
		})
		c.llBase = c.lv.order[p]
	}
	return v
}

// unknownRow is the gossip view's template row for a node the deciding
// daemon has no live entry for: infinite load (never a load target),
// marked Unknown, but still carrying the node's CPU scale and physical
// memory — capacity is cluster configuration every node knows, so the
// memory usher sees an unknown node as unknown, not as zero-capacity.
func (c *clusterSim) unknownRow(i int) sched.NodeView {
	return sched.NodeView{
		CPUScale:   c.nodes[i].CPUScale,
		Load:       math.Inf(1),
		CapacityMB: c.spec.NodeMemMB,
		Unknown:    true,
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
func (c *clusterSim) gossipView(src int, base sched.View) sched.View {
	g := c.ic.Gossip(src)
	if g == nil {
		return base
	}
	if c.gvScratch == nil {
		c.gvScratch = make([]sched.NodeView, len(base.Nodes))
		for i := range c.gvScratch {
			c.gvScratch[i] = c.unknownRow(i)
		}
		c.gvWritten = make([]int, 0, len(base.Nodes))
	}
	for _, i := range c.gvWritten {
		c.gvScratch[i] = c.unknownRow(i)
	}
	c.gvWritten = c.gvWritten[:0]

	v := base
	v.Nodes = c.gvScratch
	v.CacheLeastLoaded(&c.llGossip)
	now := c.eng.Now()
	c.gvScratch[src] = base.Nodes[src]
	c.gvWritten = append(c.gvWritten, src)
	// Seed the LeastLoaded memo while writing: every unwritten row is the
	// infinite-load Unknown template, so the argmin over written rows —
	// lowest index on load ties, matching the scan's order — is the
	// scan's answer, and the O(nodes) pass per hand-off disappears.
	bestO, bestL := src, base.Nodes[src].Load
	g.Fresh(func(o int, e infod.GossipEntry) {
		if o == src {
			return
		}
		c.gvScratch[o] = sched.NodeView{
			Procs:      e.Sample.Queue,
			CPUScale:   base.Nodes[o].CPUScale,
			Load:       e.Sample.Load,
			UsedMemMB:  e.Sample.UsedMemMB,
			CapacityMB: c.spec.NodeMemMB,
			QueueLen:   e.Sample.Queue,
			InfoAge:    now.Sub(e.Stamp),
		}
		c.gvWritten = append(c.gvWritten, o)
		if l := e.Sample.Load; l < bestL || (l == bestL && o < bestO) {
			bestO, bestL = o, l
		}
	})
	c.llGossip = bestO
	return v
}

// balance runs one balancing round: up to one migration per node, stopping
// at the first pass where the policy accepts nothing.
func (c *clusterSim) balance() {
	for i := 0; i < c.spec.Nodes; i++ {
		if !c.balanceOnce() {
			return
		}
	}
}

// balanceOnce offers the policy candidates — most loaded nodes first,
// longest remaining demand first — and executes the first migration it
// accepts, reporting whether one happened. On switched fabrics each
// source's candidates are judged against that source's gossip view. The
// source order is the live view's maintained descending-load sequence, and
// sources with no runnable candidates skip the per-source view build
// entirely (the policy was never consulted for them before either).
func (c *clusterSim) balanceOnce() bool {
	base := c.view()
	if c.checkView != nil {
		c.checkView(base)
	}
	for _, src := range c.lv.order {
		cands := c.candidatesOn(src)
		if len(cands) == 0 {
			continue
		}
		v := c.gossipView(src, base)
		for _, p := range cands {
			pv := sched.ProcView{
				ID:             p.t.id,
				Node:           src,
				Remaining:      p.remaining,
				FootprintMB:    p.footprintMB,
				WorkingSetFrac: p.t.mix.WorkingSetFrac(),
			}
			dest, ok := c.pol.ShouldMigrate(v, pv)
			if !ok || dest == src || dest < 0 || dest >= c.spec.Nodes {
				continue
			}
			c.migrate(p, src, dest)
			return true
		}
	}
	return false
}

// candidatesOn returns up to sched.MaxCandidates runnable processes on
// node, longest remaining demand first (lifetime best justifies the cost,
// following Harchol-Balter & Downey), ties broken by ascending id. The
// pool is the live view's per-node list — already filtered to runnable
// residents, already in the ascending-id order the global filter used to
// preserve.
func (c *clusterSim) candidatesOn(node int) []*proc {
	c.candScratch = sched.TopCandidatesInto(c.candScratch, c.lv.runnableOn[node],
		func(p *proc) bool { return true },
		func(p *proc) simtime.Duration { return p.remaining })
	return c.candScratch
}

// migrate freezes cand and ships its freeze-time payload across the
// fabric's topology path (network-paced per hop, competing with daemon
// traffic and other migrations). The freeze ends when the payload lands,
// plus the destination-side restore costs.
func (c *clusterSim) migrate(p *proc, src, dst int) {
	p.seq++
	p.from = src
	p.freezeStart = c.eng.Now()
	c.transition(p, procInFlight, dst)
	c.st.Migrations++

	bytes := c.freezeBytes(p)
	if !c.ic.PathUp(src, dst) {
		// Stale gossip steered the migrant at an unreachable destination.
		// The freeze-time payload cannot be committed to the wire, so no
		// migration bytes move: the migrant reverts to its source at once,
		// the way an openMosix deputy keeps a process it cannot ship.
		c.failBack(p)
		return
	}
	c.st.MigrationBytes += bytes
	m := migMsg{pid: p.t.id, seq: p.seq, dest: dst}
	c.ic.Send(src, dst, netmodel.Message{Size: bytes, Payload: m})
}

// freezeBytes sizes the freeze-time transfer under the policy: policies
// that ship a non-default payload (openMosix's full copy) declare it via
// sched.FreezePayloadSizer; everything else rides the AMPoM substrate —
// three pages, the 6 B/page MPT, and the PCB.
func (c *clusterSim) freezeBytes(p *proc) int64 {
	if s, ok := c.pol.(sched.FreezePayloadSizer); ok {
		return s.FreezePayloadBytes(p.footprintMB) + cluster.RegisterBytes
	}
	pages := footprintPages(p.footprintMB)
	return 3*memory.PageSize + pages*memory.PTEntrySize + cluster.RegisterBytes
}

// deliver consumes a migration payload arriving at its destination node
// (the fabric routed and relayed it); the destination restores the
// process.
func (c *clusterSim) deliver(node int, m migMsg) {
	if node != m.dest {
		panic(fmt.Sprintf("scenario: migration payload for node %d delivered to node %d", m.dest, node))
	}
	p := c.procs[m.pid]
	if m.seq != p.seq || p.state != procInFlight {
		// The migration this payload belonged to was failed back while the
		// bytes were in flight (destination crash or path failure); the
		// process already resumed at its source.
		return
	}
	c.restore(p, m.dest)
}

// restore finishes a migration at the destination: destination-side restore
// costs, the AMPoM working-set stream (charged as continued unavailability
// at the daemons' estimated bandwidth), and the prefetch census.
func (c *clusterSim) restore(p *proc, dst int) {
	c.transition(p, procRestoring, dst)
	cal := cluster.MigrationBase
	pages := footprintPages(p.footprintMB)
	// The process's home node is the template's origin by construction and
	// is never reassigned, so the index is known without scanning the
	// cluster.
	src := p.t.node
	bw := c.ic.PathBandwidth(src, dst)
	var extra simtime.Duration
	if c.remotePages(p, bw) {
		// MPT install on the destination CPU.
		cal += c.nodes[dst].Scale(simtime.Duration(pages) * cluster.MPTEntryCPU)
		// The working set streams in from the origin while the process
		// stalls on remote paging; the prefetcher census extrapolates how
		// many of those first touches fault versus arrive prefetched.
		wsPages := int64(float64(pages) * p.t.mix.WorkingSetFrac())
		wsBytes := wsPages * memory.PageSize
		extra = simtime.FromSeconds(float64(wsBytes) / bw)
		c.st.ExtraWork += extra
		c.st.MigrationBytes += wsBytes

		hard, pref := c.prefetchCensus(p, c.ic.PathEstimates(src, dst), wsPages)
		c.st.HardFaults += hard
		c.st.PrefetchPages += pref
	}
	// The unfreeze is guarded by the migration sequence: if the destination
	// crashes during the restore window the migrant fails back (bumping the
	// sequence) and this event must land dead.
	seq := p.seq
	c.eng.Schedule(cal+extra, func() {
		if p.seq != seq || p.state != procRestoring {
			return
		}
		c.unfreeze(p)
	})
}

// remotePages decides whether a migrant rides the lightweight substrate —
// MPT install, post-resume working-set stream and prefetch census. The
// policy states it explicitly via sched.RemotePager; otherwise its cost
// model classifies it (a non-zero extra means remote paging).
func (c *clusterSim) remotePages(p *proc, bw float64) bool {
	if rp, ok := c.pol.(sched.RemotePager); ok {
		return rp.RemotePages()
	}
	_, extra := c.pol.MigrationCost(p.footprintMB, p.t.mix.WorkingSetFrac(), bw)
	return extra > 0
}

// unfreeze resumes a restored migrant.
func (c *clusterSim) unfreeze(p *proc) {
	c.transition(p, procRunning, p.node)
	c.st.FrozenTotal += c.eng.Now().Sub(p.freezeStart)
}

// dryRunCap bounds the prefetcher dry-run per migration; totals are
// extrapolated from the sampled prefix to the full working set.
const dryRunCap = 384

// prefetchCensus dry-runs the AMPoM prefetcher over the migrant's
// first-touch stream with the daemons' current estimates, the way
// ampom-trace does, and extrapolates hard-fault and prefetched-page totals
// over the working set.
func (c *clusterSim) prefetchCensus(p *proc, est core.Estimates, wsPages int64) (hard, prefetched int64) {
	if wsPages < 1 {
		return 0, 0
	}
	pre := core.MustNew(core.DefaultConfig(), wsPages)
	src := p.t.mix.Trace(wsPages, p.t.traceSeed)()
	if int64(len(c.censusSeen)) < wsPages {
		c.censusSeen = make([]bool, wsPages)
		c.censusArrived = make([]bool, wsPages)
	}
	seen, arrived := c.censusSeen[:wsPages], c.censusArrived[:wsPages]
	clear(seen)
	clear(arrived)
	var sampled, sampleHard int64
	var t simtime.Time
	for sampled < dryRunCap {
		ref, ok := src.Next()
		if !ok {
			break
		}
		if ref.Page < 0 || int64(ref.Page) >= wsPages || seen[ref.Page] {
			continue
		}
		seen[ref.Page] = true
		sampled++
		t = t.Add(est.PageTransfer)
		if arrived[ref.Page] {
			continue // prevented: the zone fetch beat the touch
		}
		sampleHard++
		t = t.Add(est.RTT)
		pre.RecordFault(ref.Page, t, 1)
		a := pre.Analyze(est) // a.Zone is reused by the next Analyze: consume it now
		n := 0
		for _, pg := range a.Zone {
			if pg >= 0 && int64(pg) < wsPages && !arrived[pg] {
				arrived[pg] = true
				n++
			}
		}
		pre.NotePrefetched(n)
	}
	if sampled == 0 {
		return 0, 0
	}
	hard = int64(float64(sampleHard) / float64(sampled) * float64(wsPages))
	if hard < 1 {
		hard = 1
	}
	if hard > wsPages {
		hard = wsPages
	}
	return hard, wsPages - hard
}

// Run executes the scenario under the spec's policy set from the single
// seed and assembles the cluster-level report. It is a pure function of its
// arguments: the same (Spec, seed) always yields an identical Report.
// Report rows follow the canonical (registry-sorted) policy order.
func Run(spec Spec, seed uint64) (*Report, error) {
	return RunShards(spec, seed, 1)
}

// PolicyProgress is one progress sample of a scenario run: the policy
// whose simulation just completed and how far through the spec's policy
// set the run is. The campaign engine forwards these samples to its
// OnScenarioProgress hook, which is what ampom-clusterd streams to
// clients as NDJSON.
type PolicyProgress struct {
	// Policy is the registry name of the policy that just finished.
	Policy string
	// Done counts finished policy simulations; Total is the spec's
	// canonical policy-set size.
	Done, Total int
}

// RunShards is Run with the event engine sharded per rack band across
// shards conservative-window workers (clamped to the rack count; 1 — or
// any non-two-tier fabric — is the sequential engine). Sharding is an
// execution strategy, not a model parameter: every shard count yields a
// byte-identical Report, so it never participates in fingerprints or
// seeds.
func RunShards(spec Spec, seed uint64, shards int) (*Report, error) {
	return RunShardsHook(spec, seed, shards, nil)
}

// RunShardsHook is RunShards with an observation hook called after each
// policy's simulation completes. The hook is purely observational — it
// never influences the run, so hooked and unhooked runs render
// byte-identical reports — and is called from the running goroutine, so
// it must not block for long.
func RunShardsHook(spec Spec, seed uint64, shards int, hook func(PolicyProgress)) (*Report, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pols, err := sched.ByNames(spec.Policies)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if seed == 0 {
		seed = 42
	}
	scales, tmpl := buildWorkload(spec, seed)
	rep := &Report{Spec: spec, Seed: seed, Procs: len(tmpl)}
	for i, pol := range pols {
		st := newClusterSimShards(spec, scales, tmpl, pol, seed, shards).run()
		rep.Schemes = append(rep.Schemes, st)
		if hook != nil {
			hook(PolicyProgress{Policy: pol.Name(), Done: i + 1, Total: len(pols)})
		}
	}
	if base := rep.Baseline().MeanSlowdown; base > 0 {
		for i := range rep.Schemes {
			rep.Schemes[i].SlowdownVsBase = rep.Schemes[i].MeanSlowdown / base
		}
	}
	return rep, nil
}
