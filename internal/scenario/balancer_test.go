package scenario

import (
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
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
			got := newClusterSimShards(spec, scales, tmpl, chk, seed, 1).run()
			if chk.handoffs == 0 {
				t.Fatalf("%v/%s: no hand-off happened — the property was never checked", topo, name)
			}
			if want := newClusterSimShards(spec, scales, tmpl, pol, seed, 1).run(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%s: checked run %+v, plain run %+v", topo, name, got, want)
			}
		}
	}
}

// TestPolicySetIndependence locks the per-policy decision streams: a
// policy's row is a function of the spec and seed alone, whatever other
// policies share the run. One star preset and the shrunk failure preset
// run under the full registry and under {no-migration, queue-gossip}, and
// every row the two reports share must be identical.
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
}
