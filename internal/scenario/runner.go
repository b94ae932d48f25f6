package scenario

import (
	"fmt"
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
	"ampom/internal/trace"
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
	spec Spec
	mech sched.Mechanism // the policy's, read once: it charges every migration
	bal  balancer

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

	// crashed marks the nodes currently down. Crash and recovery are global
	// (merge-phase) events; shard events only read the flags, and the window
	// barriers order those reads against the writes, so every shard count
	// observes identical node liveness at identical virtual instants.
	crashed []bool

	// census is the prefetch census's dry-run prefetcher, built at the
	// first census and Reset for every later one. censusSeen and
	// censusArrived are its per-page bit sets (first touched, prefetched),
	// sized at the first census to maxFootprintMB, the largest footprint
	// of the simulation (a balloon past it drops them, and the next census
	// sizes them again), and cleared per census. censusCursor walks each
	// migrant's trace program, reset per census; its block-order buffer is
	// sized with the bit sets. One set suffices: restore, the census's only
	// caller, runs on the global engine.
	census                    *core.Prefetcher
	censusSeen, censusArrived memory.PageSet
	censusCursor              trace.Cursor
	maxFootprintMB            int64

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
		spec:    spec,
		mech:    pol.Mechanism(),
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
	c.bal = newBalancer(c, pol, seed)
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
		c.maxFootprintMB = max(c.maxFootprintMB, t.footprintMB)
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
// migrates by choice (sched.EvacuationOnly), the balance ticker. Both come after every arrival and churn
// event, in this order: sequence numbers break ties between coincident
// events, and the goldens pin the resulting event order.
func (c *clusterSim) start() {
	c.scheduleTick(simtime.Time(c.spec.Quantum))
	if c.mech != sched.EvacuationOnly {
		sim.NewTicker(c.eng, c.spec.BalancePeriod, c.bal.round)
	}
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
	if target.footprintMB > c.maxFootprintMB {
		c.maxFootprintMB = target.footprintMB
		c.censusSeen, c.censusArrived = nil, nil
	}
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

	bytes := c.mech.PayloadBytes(p.footprintMB)
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

// restore finishes a migration at the destination under the policy's
// mechanism: the destination-side restore CPU and, when the mechanism pages
// after resume, the working-set stream (charged as continued
// unavailability at the path's estimated bandwidth) and the prefetch
// census.
func (c *clusterSim) restore(p *proc, dst int) {
	c.transition(p, procRestoring, dst)
	// The process's home node is the template's origin by construction and
	// is never reassigned, so the index is known without scanning the
	// cluster.
	src := p.t.node
	r := c.mech.Restore(p.footprintMB, p.t.mix.WorkingSetFrac(), c.nodes[dst].CPUScale, c.ic.PathBandwidth(src, dst))
	if c.mech.PagesAfterResume() {
		// The working set streams in from the origin while the process
		// stalls on remote paging; the prefetcher census extrapolates how
		// many of those first touches fault versus arrive prefetched.
		c.st.ExtraWork += r.Stream
		c.st.MigrationBytes += r.StreamBytes()
		hard, pref := c.prefetchCensus(p, c.ic.PathEstimates(src, dst), r.WSPages)
		c.st.HardFaults += hard
		c.st.PrefetchPages += pref
	}
	// The unfreeze is guarded by the migration sequence: if the destination
	// crashes during the restore window the migrant fails back (bumping the
	// sequence) and this event must land dead.
	seq := p.seq
	c.eng.Schedule(r.CPU+r.Stream, func() {
		if p.seq != seq || p.state != procRestoring {
			return
		}
		c.unfreeze(p)
	})
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
	if c.census == nil {
		c.census = core.MustNew(core.DefaultConfig(), wsPages)
	} else {
		c.census.Reset(wsPages)
	}
	if c.censusSeen == nil {
		// A working set never exceeds its footprint; wsPages covers a
		// census run outside a simulation. The cursor's block order is
		// sized for the blocked mix over the same largest set.
		pages := max(footprintPages(c.maxFootprintMB), wsPages)
		c.censusSeen, c.censusArrived = memory.NewPageSet(pages), memory.NewPageSet(pages)
		c.censusCursor.Grow(int((pages + blockedMixBlock - 1) / blockedMixBlock))
	}
	pre := c.census
	src := &c.censusCursor
	src.Reset(p.t.mix.Program(wsPages, p.t.traceSeed))
	words := (wsPages + 63) / 64
	seen, arrived := c.censusSeen[:words], c.censusArrived[:words]
	clear(seen)
	clear(arrived)
	var sampled, sampleHard int64
	var t simtime.Time
	for sampled < dryRunCap {
		ref, ok := src.Next()
		if !ok {
			break
		}
		if ref.Page < 0 || int64(ref.Page) >= wsPages || !seen.Add(ref.Page) {
			continue
		}
		sampled++
		t = t.Add(est.PageTransfer)
		if arrived.Has(ref.Page) {
			continue // prevented: the zone fetch beat the touch
		}
		sampleHard++
		t = t.Add(est.RTT)
		pre.RecordFault(ref.Page, t, 1)
		a := pre.Analyze(est) // a.Zone is reused by the next Analyze: consume it now
		n := 0
		for _, pg := range a.Zone {
			if pg >= 0 && int64(pg) < wsPages && arrived.Add(pg) {
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
