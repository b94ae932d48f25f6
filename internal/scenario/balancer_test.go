package scenario

import (
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// leastCheckingPolicy observes every hand-off of its embedded policy: the
// view's LeastLoaded must equal a scan of the rows it serves. Name, Mechanism and the decision itself come from the embedded
// policy, so the run is the embedded policy's run.
type leastCheckingPolicy struct {
	sched.BalancerPolicy
	t        *testing.T
	handoffs int
}

func (p *leastCheckingPolicy) ShouldMigrate(v sched.View, pv sched.ProcView) (int, bool) {
	p.handoffs++
	if got, scan := v.LeastLoaded(), readRows(v).LeastLoaded(); got != scan {
		p.t.Fatalf("%s hand-off %d for node %d: LeastLoaded %d, scan of the served rows %d",
			p.Name(), p.handoffs, pv.Node, got, scan)
	}
	return p.BalancerPolicy.ShouldMigrate(v, pv)
}

// readRows reads every row v serves, through Node, into a RowSlice.
func readRows(v sched.View) sched.RowSlice {
	rows := make(sched.RowSlice, v.Len())
	for i := range rows {
		rows[i] = v.Node(i)
	}
	return rows
}

// TestSeededLeastLoadedMatchesScan checks the LeastLoaded answer of every
// hand-off's view against a RowSlice scan of the rows it serves: the
// ground-truth view on the star (read off the live view's sorted order)
// and the per-source gossip views on the two-tier fabric (the source's
// own row against its daemon's memoised least loaded entry), under every
// registered policy. The checking wrapper only observes, so each run must
// equal the unwrapped policy's run.
func TestSeededLeastLoadedMatchesScan(t *testing.T) {
	for _, topo := range []fabric.Kind{fabric.KindStar, fabric.KindTwoTier} {
		spec := gossipViewSpec()
		spec.Fabric.Topology = topo
		spec = spec.Canonical()
		const seed = 3
		scales, tmpl := buildWorkload(spec, seed)
		for _, name := range sched.Names() {
			pol, _ := sched.Lookup(name)
			if pol.Mechanism() == sched.EvacuationOnly {
				continue // never balances, so no hand-off happens
			}
			chk := &leastCheckingPolicy{BalancerPolicy: pol, t: t}
			got := newClusterSimShards(spec, scales, tmpl, chk, seed, 1, nil).run()
			if chk.handoffs == 0 {
				t.Fatalf("%v/%s: no hand-off happened — the property was never checked", topo, name)
			}
			if want := newClusterSimShards(spec, scales, tmpl, pol, seed, 1, nil).run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%s: checked run %+v, plain run %+v", topo, name, got, want)
			}
		}
	}
}

// TestPolicySetIndependence locks the per-policy decision streams: a
// policy's row is a function of the spec and seed alone, whatever other
// policies share the run. One star preset and the shrunk failure preset
// run under the full registry and under {no-migration, queue-gossip}, and
// every row the two reports share must be identical. A shrunk mega-farm
// runs under the full registry and under {no-migration, P} for every
// other policy P, at one shard and at two: the simulations of a switched
// job share one gossip plane, so each row must not depend on which runs
// used the plane before it.
func TestPolicySetIndependence(t *testing.T) {
	star, err := Preset("hpc-farm")
	if err != nil {
		t.Fatal(err)
	}
	failures, err := Preset("rack-farm-failures")
	if err != nil {
		t.Fatal(err)
	}
	failures.Nodes, failures.Procs, failures.NodeMemMB = 128, 0, 0
	const seed = 9
	for _, spec := range []Spec{star, failures} {
		spec.Policies = nil
		full, err := Run(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec.Policies = []string{sched.NameNoMigration, sched.NameQueueGossip}
		pair, err := Run(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Schemes) != len(sched.Names()) || len(pair.Schemes) != 2 {
			t.Fatalf("%s: %d and %d rows, want %d and 2", spec.Name, len(full.Schemes), len(pair.Schemes), len(sched.Names()))
		}
		for _, got := range pair.Schemes {
			want, ok := full.Scheme(got.Policy)
			if !ok {
				t.Fatalf("%s: full run has no %s row", spec.Name, got.Policy)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s row depends on the policy set:\nalone %+v\nfull  %+v", spec.Name, got.Policy, got, want)
			}
		}
	}

	mega, err := Preset("mega-farm")
	if err != nil {
		t.Fatal(err)
	}
	mega.Nodes, mega.Procs, mega.NodeMemMB = 256, 0, 0
	for _, shards := range []int{1, 2} {
		mega.Policies = nil
		full, err := RunShards(mega, seed, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Schemes) != len(sched.Names()) {
			t.Fatalf("mega-farm/%d shards: %d rows, want %d", shards, len(full.Schemes), len(sched.Names()))
		}
		for _, row := range full.Schemes {
			if row.Policy == sched.NameNoMigration {
				continue
			}
			mega.Policies = []string{sched.NameNoMigration, row.Policy}
			pair, err := RunShards(mega, seed, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range pair.Schemes {
				want, _ := full.Scheme(got.Policy)
				if got, want := withoutWallTime(got), withoutWallTime(want); !reflect.DeepEqual(got, want) {
					t.Fatalf("mega-farm/%d shards: %s row depends on the policy set:\nwith %s %+v\nfull %+v",
						shards, got.Policy, row.Policy, got, want)
				}
			}
		}
	}
}

// withoutWallTime drops the one field of a row that is not a function of
// the spec and seed: the wall time each shard spent busy.
func withoutWallTime(st SchemeStats) SchemeStats {
	if st.Sharding != nil {
		sh := *st.Sharding
		sh.Group.ShardBusy = nil
		st.Sharding = &sh
	}
	return st
}

// reaskCounter wraps a policy and counts its hand-offs as the balancer
// makes them. A hand-off offers a source's candidates in a fixed order,
// so within one round, until a migration moves a process off or onto the
// source, the source's first candidate coming back marks a new hand-off
// to that source. reasks counts the new hand-offs whose source's previous
// hand-off refused every candidate without drawing from Rand.
type reaskCounter struct {
	sched.BalancerPolicy
	eng    *sim.Engine
	calls  int
	reasks int
	state  map[int]*handoffState // by source, for the round at .at
}

// handoffState is one source's current hand-off: the round's instant,
// the first candidate it offered, and whether any of its calls drew from
// Rand.
type handoffState struct {
	at    simtime.Time
	first int
	drew  bool
}

func (p *reaskCounter) ShouldMigrate(v sched.View, pv sched.ProcView) (int, bool) {
	p.calls++
	now := p.eng.Now()
	h := p.state[pv.Node]
	switch {
	case h == nil || h.at != now:
		h = &handoffState{at: now, first: pv.ID}
		p.state[pv.Node] = h
	case pv.ID == h.first:
		if !h.drew {
			p.reasks++
		}
		h.drew = false
	}
	before := *v.Rand
	dest, ok := p.BalancerPolicy.ShouldMigrate(v, pv)
	h.drew = h.drew || *v.Rand != before
	if ok && dest != pv.Node {
		// The migration changes both endpoints' rows and candidates:
		// their next hand-offs start afresh.
		delete(p.state, pv.Node)
		delete(p.state, dest)
	}
	return dest, ok
}

// TestRefusingSourceNotReasked checks the balance round's skip rule with a
// counting policy. On a switched fabric no source is handed the policy
// again at the same instant after a hand-off that refused every
// candidate without drawing from Rand, unless a migration moved a process
// off or onto it since; and the rule is exact: a run with the rule turned
// off (the gossip rows built ahead of the first round, so the balancer
// never allocates its refusal marks) re-asks such sources and ends in the
// identical row. On the star, whose ground-truth rows every migration
// changes, such sources are asked again. The counter only observes, so
// every counted run must equal the plain run.
func TestRefusingSourceNotReasked(t *testing.T) {
	failures, err := Preset("rack-farm-failures")
	if err != nil {
		t.Fatal(err)
	}
	failures.Nodes, failures.Procs, failures.NodeMemMB = 128, 0, 0
	star, err := Preset("hpc-farm")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []Spec{gossipViewSpec(), failures.Canonical(), star} {
		const seed = 5
		switched := spec.Fabric.Topology != fabric.KindStar
		scales, tmpl := buildWorkload(spec, seed)
		// counted runs pol under the counter, with the skip rule on or off.
		counted := func(pol sched.BalancerPolicy, rule bool) (SchemeStats, *reaskCounter) {
			cnt := &reaskCounter{BalancerPolicy: pol, state: map[int]*handoffState{}}
			c := buildClusterSim(spec, scales, tmpl, cnt, seed, 1, nil)
			cnt.eng = c.eng
			if !rule {
				c.bal.sources = make([]gossipRows, len(c.nodes))
				for i := range c.bal.sources {
					c.bal.sources[i] = gossipRows{b: &c.bal, g: c.ic.Gossip(i), src: i}
				}
			}
			c.start()
			return c.run(), cnt
		}
		reasks, offReasks := 0, 0
		for _, name := range sched.Names() {
			pol, _ := sched.Lookup(name)
			if pol.Mechanism() == sched.EvacuationOnly {
				continue
			}
			got, cnt := counted(pol, true)
			if cnt.calls == 0 {
				t.Fatalf("%s/%s: the policy was never asked", spec.Name, name)
			}
			if want := newClusterSimShards(spec, scales, tmpl, pol, seed, 1, nil).run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: counted run %+v, plain run %+v", spec.Name, name, got, want)
			}
			reasks += cnt.reasks
			if !switched {
				continue
			}
			off, offCnt := counted(pol, false)
			if !reflect.DeepEqual(off, got) {
				t.Fatalf("%s/%s: the skip rule changed the run:\nwith    %+v\nwithout %+v", spec.Name, name, got, off)
			}
			t.Logf("%s/%s: %d calls with the rule, %d without, %d of them re-asking a source refused without a draw",
				spec.Name, name, cnt.calls, offCnt.calls, offCnt.reasks)
			offReasks += offCnt.reasks
		}
		if switched && (reasks != 0 || offReasks == 0) {
			t.Fatalf("%s: %d hand-offs re-asked a source whose last hand-off refused without drawing, %d with the rule off (want 0 and some)",
				spec.Name, reasks, offReasks)
		}
		if !switched && reasks == 0 {
			t.Fatalf("%s: the star never re-asked a refusing source, so the count shows nothing", spec.Name)
		}
	}
}
