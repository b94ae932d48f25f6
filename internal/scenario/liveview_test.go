package scenario

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/prng"
	"ampom/internal/sched"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// rebuildAggregates recomputes the live view's aggregates the way the
// pre-incremental runner did: one full scan of every process. lists are
// the runnable candidate ids per node; residents additionally carry the
// suspended processes and the frozen in-migrants — the resident
// population the balloon scans iterate. The state lists are spelled out
// here rather than read from procState's predicates, so the reference
// stays independent of the code it checks.
func rebuildAggregates(c *clusterSim) (live, runnable []int, mem []int64, lists, residents [][]int) {
	n := c.spec.Nodes
	live = make([]int, n)
	runnable = make([]int, n)
	mem = make([]int64, n)
	lists = make([][]int, n)
	residents = make([][]int, n)
	for _, p := range c.procs {
		switch p.state {
		case procRunning, procSuspended, procInFlight, procRestoring:
		default:
			continue
		}
		live[p.node]++
		mem[p.node] += p.footprintMB
		residents[p.node] = append(residents[p.node], p.t.id)
		if p.state == procRunning {
			runnable[p.node]++
			lists[p.node] = append(lists[p.node], p.t.id)
		}
	}
	return live, runnable, mem, lists, residents
}

// rebuildRows recomputes the NodeView rows and the descending-load source
// order (ascending index on ties) from scratch, walking every process — the
// reference the incremental live view must match.
func rebuildRows(c *clusterSim) ([]sched.NodeView, []int) {
	n := c.spec.Nodes
	rows := make([]sched.NodeView, n)
	for i := range rows {
		rows[i].CPUScale = c.nodes[i].CPUScale
		rows[i].CapacityMB = c.spec.NodeMemMB
	}
	for _, p := range c.procs {
		switch p.state {
		case procRunning, procSuspended, procInFlight, procRestoring:
			rows[p.node].Procs++
			rows[p.node].UsedMemMB += p.footprintMB
		}
	}
	for i := range rows {
		rows[i].Load = float64(rows[i].Procs) / rows[i].CPUScale
		rows[i].QueueLen = rows[i].Procs
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rows[order[a]].Load > rows[order[b]].Load
	})
	return rows, order
}

// verifyAggregates asserts the live counters and candidate lists equal a
// full recompute at the current instant.
func verifyAggregates(t *testing.T, c *clusterSim, when string) {
	t.Helper()
	live, runnable, mem, lists, residents := rebuildAggregates(c)
	for i := 0; i < c.spec.Nodes; i++ {
		gotLive, gotRunnable := len(c.lv.liveOn[i]), len(c.lv.runnableOn[i])
		if gotLive != live[i] || gotRunnable != runnable[i] || c.lv.mem[i] != mem[i] {
			t.Fatalf("%s: node %d aggregates live/runnable/mem = %d/%d/%d, rebuild %d/%d/%d",
				when, i, gotLive, gotRunnable, c.lv.mem[i], live[i], runnable[i], mem[i])
		}
		ids := make([]int, 0, len(c.lv.runnableOn[i]))
		for _, p := range c.lv.runnableOn[i] {
			ids = append(ids, p.t.id)
		}
		if !(len(ids) == 0 && len(lists[i]) == 0) && !reflect.DeepEqual(ids, lists[i]) {
			t.Fatalf("%s: node %d candidate list %v, rebuild %v", when, i, ids, lists[i])
		}
		res := make([]int, 0, len(c.lv.liveOn[i]))
		for _, p := range c.lv.liveOn[i] {
			res = append(res, p.t.id)
		}
		if !(len(res) == 0 && len(residents[i]) == 0) && !reflect.DeepEqual(res, residents[i]) {
			t.Fatalf("%s: node %d resident list %v, rebuild %v", when, i, res, residents[i])
		}
	}
}

// verifyDerived asserts the refreshed rows and source order equal a full
// rebuild + stable sort at the current instant.
func verifyDerived(t *testing.T, c *clusterSim, when string) {
	t.Helper()
	c.lv.refresh()
	rows, order := rebuildRows(c)
	for i := range rows {
		if c.lv.rows[i] != rows[i] {
			t.Fatalf("%s: node %d row %+v, rebuild %+v", when, i, c.lv.rows[i], rows[i])
		}
	}
	if !reflect.DeepEqual(c.lv.order, order) {
		t.Fatalf("%s: source order %v, rebuild %v", when, c.lv.order, order)
	}
}

// churnSpec builds a randomised scenario with every churn kind, drawn from
// one seed: mixed arrival models, CPU tiers, balloon growth, bursts,
// slowdowns and background-load shifts, on a random topology.
func churnSpec(seed uint64) Spec {
	rng := prng.New(seed)
	topos := []fabric.Kind{fabric.KindStar, fabric.KindTwoTier, fabric.KindFlat}
	nodes := 4 + rng.Intn(8)
	s := Spec{
		Name:            "liveview-churn",
		Nodes:           nodes,
		Procs:           nodes * (2 + rng.Intn(4)),
		SlowFrac:        0.25,
		FastFrac:        0.25,
		Skew:            0.5 + 0.4*rng.Float64(),
		MeanCompute:     simtime.Duration(2+rng.Intn(3)) * simtime.Second,
		MeanFootprintMB: int64(24 + rng.Intn(64)),
		Fabric:          FabricSpec{Topology: topos[rng.Intn(len(topos))], RackSize: 4},
		Churn: []ChurnEvent{
			{At: simtime.Duration(1+rng.Intn(3)) * simtime.Second, Kind: ChurnSlowNode, Node: 1, Factor: 0.5},
			{At: simtime.Duration(2+rng.Intn(3)) * simtime.Second, Kind: ChurnBalloon, Node: rng.Intn(nodes), Factor: 1.5 + rng.Float64()},
			{At: simtime.Duration(3+rng.Intn(3)) * simtime.Second, Kind: ChurnBurst, Node: rng.Intn(nodes), Procs: 2 + rng.Intn(6)},
			{At: simtime.Duration(4+rng.Intn(3)) * simtime.Second, Kind: ChurnNetLoad, Node: -1, Factor: 0.4},
			{At: simtime.Duration(5+rng.Intn(3)) * simtime.Second, Kind: ChurnBalloon, Node: rng.Intn(nodes), Factor: 2},
		},
	}
	if rng.Intn(2) == 0 {
		s.Arrival = ArrivalPoisson
		s.MeanInterarrival = 100 * simtime.Millisecond
	}
	return s.Canonical()
}

// startChecking starts c the way start does, but with a balance ticker the
// test installs itself: every balanceOnce's ground-truth view goes to
// check right after the incremental refresh, before any policy sees it,
// and its LeastLoaded must equal a RowSlice scan of the rows it serves.
func startChecking(t *testing.T, c *clusterSim, check func(base sched.View)) {
	t.Helper()
	c.scheduleTick(simtime.Time(c.spec.Quantum))
	if c.mech == sched.EvacuationOnly {
		return
	}
	sim.NewTicker(c.eng, c.spec.BalancePeriod, func() {
		for range c.bal.nodes {
			base := c.bal.view()
			if got, scan := base.LeastLoaded(), readRows(base).LeastLoaded(); got != scan {
				t.Fatalf("base view at %v: LeastLoaded %d, scan %d", c.eng.Now(), got, scan)
			}
			check(base)
			if !c.bal.balanceOnce(base) {
				return
			}
		}
	})
}

// TestLiveViewMatchesRebuild is the tentpole's central property: across
// random churn/balloon/migration sequences, every balance round's
// incrementally maintained view — aggregates, candidate lists, derived
// rows and source order — is identical to a from-scratch rebuild, under
// every registered policy and every topology.
func TestLiveViewMatchesRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		spec := churnSpec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: invalid spec: %v", seed, err)
		}
		scales, tmpl := buildWorkload(spec, seed)
		pols, err := sched.ByNames(spec.Policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range pols {
			c := buildClusterSim(spec, scales, tmpl, pol, seed, 1)
			rounds := 0
			startChecking(t, c, func(base sched.View) {
				rounds++
				verifyAggregates(t, c, spec.Fabric.Topology.String()+"/"+pol.Name())
				verifyDerived(t, c, spec.Fabric.Topology.String()+"/"+pol.Name())
				// The handed view must serve exactly the canonical rows.
				if base.Len() != len(c.lv.rows) {
					t.Fatalf("%s: handed view serves %d rows, canonical %d", pol.Name(), base.Len(), len(c.lv.rows))
				}
				for i := range c.lv.rows {
					if got := base.Node(i); got != c.lv.rows[i] {
						t.Fatalf("%s: handed row %d %+v diverges from canonical %+v",
							pol.Name(), i, got, c.lv.rows[i])
					}
				}
			})
			st := c.run()
			if pol.Name() != sched.BaselineName && rounds == 0 {
				t.Fatalf("seed %d: %s ran no balance rounds — the property was never checked", seed, pol.Name())
			}
			// The checking ticker must drive the same simulation start does.
			if want := newClusterSimShards(spec, scales, tmpl, pol, seed, 1).run(); !reflect.DeepEqual(st, want) {
				t.Fatalf("seed %d: %s: checked run %+v, plain run %+v", seed, pol.Name(), st, want)
			}
		}
	}
}

// TestLiveViewMatchesRebuildBetweenEvents steps scenarios through virtual
// time in quantum-sized slices and re-verifies the aggregates after every
// slice — catching any transition (arrival, completion, freeze, unfreeze,
// balloon, kill, fail-back, recovery) that left the counters stale between
// balance rounds, which the round-grained property test could miss. The
// inputs are a churn scenario and the shrunk rack-farm-failures preset,
// both with its evacuating crashes and with kill-in-place.
func TestLiveViewMatchesRebuildBetweenEvents(t *testing.T) {
	evac := failureGoldenSpec(t)
	kill := evac
	kill.Evacuate = false
	for _, in := range []struct {
		name string
		spec Spec
		seed uint64
	}{
		{"churn", churnSpec(3), 3},
		{"failures-evacuate", evac, 7},
		{"failures-kill", kill, 7},
	} {
		scales, tmpl := buildWorkload(in.spec, in.seed)
		pol, _ := sched.Lookup(sched.NameAMPoM)
		c := newClusterSimShards(in.spec, scales, tmpl, pol, in.seed, 1)
		if !stepVerifying(t, c, in.name) {
			t.Fatalf("%s: scenario never completed inside the horizon", in.name)
		}
	}
}

// stepVerifying runs c to its horizon one quantum at a time, checking the
// live view against the rebuild after every slice, and reports whether
// every process completed.
func stepVerifying(t *testing.T, c *clusterSim, name string) bool {
	t.Helper()
	for at := simtime.Time(0); at < c.horizon; at = at.Add(c.spec.Quantum) {
		c.eng.Run(at)
		verifyAggregates(t, c, name+" "+at.String())
		verifyDerived(t, c, name+" "+at.String())
		if doneCount(c) == len(c.procs) {
			return true
		}
	}
	return false
}

// keptViews is how many recent views retainingPolicy keeps.
const keptViews = 16

// retainingPolicy keeps the last keptViews Views it was handed and, before
// each decision, reads every row of every view it kept.
// Nothing handed out is a shared slice any more — rows are served by value
// — so a kept view is harmless by construction, and this locks that in:
// reading stale views must leave the next round's hand-off, and the whole
// run, exactly as they would be. Name and Mechanism come from the
// embedded policy.
type retainingPolicy struct {
	sched.BalancerPolicy
	kept  []sched.View
	reads int
}

func (r *retainingPolicy) ShouldMigrate(v sched.View, p sched.ProcView) (int, bool) {
	for _, old := range r.kept {
		for i := 0; i < old.Len(); i++ {
			_ = old.Node(i)
			r.reads++
		}
		_ = old.LeastLoaded()
	}
	if len(r.kept) == keptViews {
		r.kept = append(r.kept[:0], r.kept[1:]...)
	}
	r.kept = append(r.kept, v)
	return r.BalancerPolicy.ShouldMigrate(v, p)
}

// TestRetainingPolicyCannotCorruptNextRound locks the hand-off contract: a
// policy that keeps the views it was handed and reads them in later
// rounds never changes a later round's view. The checking ticker (which
// verifies the handed rows against a from-scratch rebuild at every
// balanceOnce) is the invariant check; it runs against both hand-off
// paths — the star's ground-truth rows and the switched fabrics'
// per-source gossip rows — and the retaining run must equal the plain
// policy's run.
func TestRetainingPolicyCannotCorruptNextRound(t *testing.T) {
	for _, topo := range []fabric.Kind{fabric.KindStar, fabric.KindTwoTier} {
		spec := Spec{
			Name:            "retainer",
			Nodes:           8,
			Procs:           32,
			Skew:            0.7,
			MeanCompute:     2 * simtime.Second,
			MeanFootprintMB: 32,
			Fabric:          FabricSpec{Topology: topo, RackSize: 4},
		}.Canonical()
		scales, tmpl := buildWorkload(spec, 7)
		keeper := &retainingPolicy{BalancerPolicy: sched.AMPoMPolicy}
		c := buildClusterSim(spec, scales, tmpl, keeper, 7, 1)
		rounds := 0
		startChecking(t, c, func(base sched.View) {
			rounds++
			// Reading kept views must not have leaked into this round's
			// hand-off.
			rows, _ := rebuildRows(c)
			for i := range rows {
				if got := base.Node(i); got != rows[i] {
					t.Fatalf("%v round %d: handed row %d %+v poisoned (want %+v)",
						topo, rounds, i, got, rows[i])
				}
			}
		})
		st := c.run()
		if rounds < 2 || keeper.reads == 0 {
			t.Fatalf("%v: %d balance rounds, %d reads of kept views — retention was never exercised", topo, rounds, keeper.reads)
		}
		if want := newClusterSimShards(spec, scales, tmpl, sched.AMPoMPolicy, 7, 1).run(); !reflect.DeepEqual(st, want) {
			t.Fatalf("%v: retaining run %+v, plain run %+v", topo, st, want)
		}
	}
}

// TestGossipViewIncrementalProbes locks the gossip view under the
// incremental probe path: rows for origins gossip has not reached are
// Unknown with an infinite load, known rows carry the origin's probed
// aggregates (which now read the live counters) with InfoAge equal to the
// entry's staleness, and the source's own row stays exact.
func TestGossipViewIncrementalProbes(t *testing.T) {
	spec := Spec{
		Name:            "gossip-view",
		Nodes:           12,
		Procs:           48,
		Skew:            0.7,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
		Fabric:          FabricSpec{Topology: fabric.KindFlat},
	}.Canonical()
	scales, tmpl := buildWorkload(spec, 11)
	pol, _ := sched.Lookup(sched.NameQueueGossip)
	c := newClusterSimShards(spec, scales, tmpl, pol, 11, 1)

	// Before any gossip lands every non-source row is Unknown.
	c.eng.Run(simtime.Time(10 * simtime.Millisecond))
	const src = 2
	base := c.bal.view()
	v := c.bal.gossipView(src, base)
	if v.Rows == base.Rows {
		t.Fatal("gossip view serves the ground-truth rows")
	}
	if v.Len() != spec.Nodes {
		t.Fatalf("gossip view serves %d rows for %d nodes", v.Len(), spec.Nodes)
	}
	if v.Node(src) != base.Node(src) {
		t.Fatalf("source row %+v diverges from ground truth %+v", v.Node(src), base.Node(src))
	}
	for i := 0; i < v.Len(); i++ {
		if i == src {
			continue
		}
		if row := v.Node(i); !row.Unknown || !math.IsInf(row.Load, 1) {
			t.Fatalf("pre-gossip row %d not Unknown/+Inf: %+v", i, row)
		}
	}

	// After several gossip periods the rows fill in from the probes.
	c.eng.Run(simtime.Time(5 * spec.Fabric.GossipPeriod))
	base = c.bal.view()
	v = c.bal.gossipView(src, base)
	g := c.ic.Gossip(src)
	now := c.eng.Now()
	known := 0
	for i := 0; i < v.Len(); i++ {
		row := v.Node(i)
		if i == src || row.Unknown {
			continue
		}
		known++
		e, ok := g.Entry(i)
		if !ok {
			t.Fatalf("row %d known in the view but not in the daemon", i)
		}
		if row.Procs != e.Sample.Queue || row.UsedMemMB != e.Sample.UsedMemMB ||
			row.Load != e.Sample.Load || row.QueueLen != e.Sample.Queue {
			t.Fatalf("row %d %+v does not carry the daemon entry %+v", i, row, e.Sample)
		}
		if want := now.Sub(e.Stamp); row.InfoAge != want {
			t.Fatalf("row %d InfoAge %v, want staleness %v", i, row.InfoAge, want)
		}
		if row.InfoAge <= 0 {
			t.Fatalf("row %d InfoAge %v not positive — stamps are not aging", i, row.InfoAge)
		}
	}
	if known == 0 {
		t.Fatal("no rows known after five gossip periods")
	}

	// The probes behind those entries read the live aggregates: pushing a
	// fresh probe for the source must match a from-scratch recompute.
	sample := c.probeFor(src)()
	wantQ, wantMem := 0, int64(0)
	for _, p := range c.procs {
		switch p.state {
		case procRunning, procSuspended, procInFlight, procRestoring:
			if p.node == src {
				wantQ++
				wantMem += p.footprintMB
			}
		}
	}
	if sample.Queue != wantQ || sample.UsedMemMB != wantMem {
		t.Fatalf("probe %+v, rebuild queue %d mem %d", sample, wantQ, wantMem)
	}
}

// TestTransitionRejectsIllegalEdges walks all 36 (from, to) pairs of the
// process lifecycle, with the target on the process's own node and on the
// other one. Each of the eleven legal edges must leave the live view equal
// to the rebuild; every other pair must panic with the process and the view
// untouched.
func TestTransitionRejectsIllegalEdges(t *testing.T) {
	legal := map[[2]procState]bool{
		{procPending, procRunning}:     true,
		{procPending, procSuspended}:   true,
		{procRunning, procSuspended}:   true,
		{procRunning, procInFlight}:    true,
		{procRunning, procDone}:        true,
		{procSuspended, procRunning}:   true,
		{procInFlight, procRestoring}:  true,
		{procInFlight, procRunning}:    true,
		{procInFlight, procSuspended}:  true,
		{procRestoring, procRunning}:   true,
		{procRestoring, procSuspended}: true,
	}
	spec := Spec{Name: "edges", Nodes: 2, Procs: 1, MeanCompute: simtime.Second, MeanFootprintMB: 16}.Canonical()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	scales, tmpl := buildWorkload(spec, 1)
	// reach[s] drives a fresh process from pending to s along legal edges;
	// the frozen states sit on the other node, as a migrant would.
	reach := [...][]procState{
		procPending:   nil,
		procRunning:   {procRunning},
		procSuspended: {procSuspended},
		procInFlight:  {procRunning, procInFlight},
		procRestoring: {procRunning, procInFlight, procRestoring},
		procDone:      {procRunning, procDone},
	}
	for from := procPending; from <= procDone; from++ {
		for to := procPending; to <= procDone; to++ {
			for flip := 0; flip < 2; flip++ {
				c := newClusterSimShards(spec, scales, tmpl, sched.AMPoMPolicy, 1, 1)
				p := c.procs[0]
				home := p.node
				for _, s := range reach[from] {
					node := home
					if s == procInFlight || s == procRestoring {
						node = 1 - home
					}
					c.transition(p, s, node)
				}
				was := p.node
				node := was ^ flip // stay, or cross to the other node
				name := fmt.Sprintf("%v->%v on node %d", from, to, node)
				panicked := func() (panicked bool) {
					defer func() { panicked = recover() != nil }()
					c.transition(p, to, node)
					return false
				}()
				ok := legal[[2]procState{from, to}]
				switch {
				case ok && panicked:
					t.Fatalf("%s: legal edge panicked", name)
				case ok && (p.state != to || p.node != node):
					t.Fatalf("%s: process left at %v on node %d", name, p.state, p.node)
				case !ok && !panicked:
					t.Fatalf("%s: illegal edge accepted", name)
				case !ok && (p.state != from || p.node != was):
					t.Fatalf("%s: rejected edge moved the process to %v on node %d", name, p.state, p.node)
				}
				verifyAggregates(t, c, name)
				verifyDerived(t, c, name)
			}
		}
	}
}
