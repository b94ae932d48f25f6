package scenario

import (
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// tickSpec is churnSpec pinned to the two-tier fabric — the topology whose
// quantum tick is split into per-rack-band sub-events.
func tickSpec(seed uint64) Spec {
	s := churnSpec(seed)
	s.Name = "tick-churn"
	s.Fabric.Topology = fabric.KindTwoTier
	return s.Canonical()
}

// fusedSim builds a two-tier sim whose tick is fused, the path star
// and flat fabrics take: one whole-cluster event per quantum that ticks
// every rack band in order and then closes the quantum. It is the
// reference the split tick is compared against.
func fusedSim(spec Spec, scales []float64, tmpl []procTemplate, pol sched.BalancerPolicy, seed uint64) *clusterSim {
	c := buildClusterSim(spec, scales, tmpl, pol, seed, 1, nil)
	c.split = false
	c.start()
	return c
}

// doneCount is the number of completions c's bands have counted.
func doneCount(c *clusterSim) int {
	done := 0
	for _, n := range c.doneBy {
		done += n
	}
	return done
}

// TestBandTickMatchesMonolithic is the split tick's central property:
// under random churn/balloon/migration sequences and every registered
// policy, the per-band tick sub-events leave every process with exactly
// the state — remaining demand, completion instant, lifecycle state,
// residence — a fused whole-cluster tick produces, at every quantum. Both
// sims are driven in lockstep through virtual time, pausing just past each
// quantum's epilogue instant so the split run's epilogue has fired before
// each comparison.
func TestBandTickMatchesMonolithic(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		spec := tickSpec(seed)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: invalid spec: %v", seed, err)
		}
		scales, tmpl := buildWorkload(spec, seed)
		pols, err := sched.ByNames(spec.Policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range pols {
			dec := newClusterSimShards(spec, scales, tmpl, pol, seed, 1, nil)
			ref := fusedSim(spec, scales, tmpl, pol, seed)
			name := pol.Name()
			if !dec.split {
				t.Fatalf("seed %d/%s: two-tier sim did not split its tick", seed, name)
			}
			if wantBands := (spec.Nodes + spec.Fabric.RackSize - 1) / spec.Fabric.RackSize; dec.bands != wantBands {
				t.Fatalf("seed %d/%s: %d bands, want %d (rack geometry)", seed, name, dec.bands, wantBands)
			}
			if ref.split || ref.bands != dec.bands {
				t.Fatalf("seed %d/%s: fused reference split=%v with %d bands", seed, name, ref.split, ref.bands)
			}

			at := simtime.Time(spec.Quantum)
			for q := 1; ; q++ {
				if at > dec.horizon {
					t.Fatalf("seed %d/%s: scenario never completed inside the horizon", seed, name)
				}
				edge := at.Add(tickEpilogueLag)
				dec.eng.Run(edge)
				ref.eng.Run(edge)
				if doneCount(dec) != doneCount(ref) {
					t.Fatalf("seed %d/%s quantum %d: done %d (split) != %d (fused)",
						seed, name, q, doneCount(dec), doneCount(ref))
				}
				for i := range dec.procs {
					d, m := dec.procs[i], ref.procs[i]
					if d.remaining != m.remaining || d.finishAt != m.finishAt ||
						d.state != m.state || d.node != m.node {
						t.Fatalf("seed %d/%s quantum %d: proc %d diverged:\nsplit      rem=%v finish=%v state=%v node=%d\nfused      rem=%v finish=%v state=%v node=%d",
							seed, name, q, d.t.id,
							d.remaining, d.finishAt, d.state, d.node,
							m.remaining, m.finishAt, m.state, m.node)
					}
				}
				if doneCount(dec) == len(dec.procs) {
					break
				}
				at = at.Add(spec.Quantum)
			}
			if dec.st.Makespan != ref.st.Makespan {
				t.Fatalf("seed %d/%s: makespan %v (split) != %v (fused)",
					seed, name, dec.st.Makespan, ref.st.Makespan)
			}
		}
	}
}

// TestBandTickMatchesMonolithicStats runs both tick implementations end to
// end and compares the full per-policy statistics. Only the processed
// event count (the split tick schedules more, smaller events) and the
// sharding telemetry may differ; every model output must be identical.
// The second input is a one-rack two-tier spec: whether a run splits its
// tick follows the topology, not the band count, so it splits too.
func TestBandTickMatchesMonolithicStats(t *testing.T) {
	oneRack := tickSpec(2)
	oneRack.Name = "tick-one-rack"
	oneRack.Fabric.RackSize = oneRack.Nodes
	if err := oneRack.Validate(); err != nil {
		t.Fatalf("invalid one-rack spec: %v", err)
	}
	for _, spec := range []Spec{tickSpec(2), oneRack} {
		scales, tmpl := buildWorkload(spec, 2)
		pols, err := sched.ByNames(spec.Policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range pols {
			c := newClusterSimShards(spec, scales, tmpl, pol, 2, 1, nil)
			if !c.split {
				t.Fatalf("%s/%s: two-tier sim with %d bands did not split its tick", spec.Name, pol.Name(), c.bands)
			}
			dec := c.run()
			ref := fusedSim(spec, scales, tmpl, pol, 2).run()
			if dec.Events <= ref.Events {
				t.Fatalf("%s/%s: split run processed %d events, fused %d — splitting should add per-band sub-events",
					spec.Name, pol.Name(), dec.Events, ref.Events)
			}
			dec.Events, ref.Events = 0, 0
			dec.Sharding, ref.Sharding = nil, nil
			if !reflect.DeepEqual(dec, ref) {
				t.Fatalf("%s/%s: model outputs diverge:\nsplit      %+v\nfused      %+v", spec.Name, pol.Name(), dec, ref)
			}
		}
	}
}

// TestNoMigrationFabricIndependent is a reference for the tick that needs
// no seam: with no migrations and no failures, process completion cannot
// depend on the fabric. no-migration runs the same workload on the star
// (fused tick), two-tier racks of 4 (split tick) and flat; every process
// must end with the same completion instant, remaining demand, state and
// node, and the runs with the same makespan and mean slowdown.
func TestNoMigrationFabricIndependent(t *testing.T) {
	pol, ok := sched.Lookup(sched.NameNoMigration)
	if !ok {
		t.Fatal("no-migration policy not registered")
	}
	for seed := uint64(1); seed <= 40; seed++ {
		base := churnSpec(seed)
		// buildWorkload does not read the fabric, so one workload serves
		// every topology.
		scales, tmpl := buildWorkload(base, seed)
		var ref *clusterSim
		var refSt SchemeStats
		for _, k := range []fabric.Kind{fabric.KindStar, fabric.KindTwoTier, fabric.KindFlat} {
			spec := base
			spec.Fabric = FabricSpec{Topology: k, RackSize: 4}
			spec = spec.Canonical()
			c := newClusterSimShards(spec, scales, tmpl, pol, seed, 1, nil)
			if c.split != (k == fabric.KindTwoTier) {
				t.Fatalf("seed %d/%v: split=%v", seed, k, c.split)
			}
			st := c.run()
			if ref == nil {
				ref, refSt = c, st
				continue
			}
			for i, p := range c.procs {
				r := ref.procs[i]
				if p.finishAt != r.finishAt || p.remaining != r.remaining || p.state != r.state || p.node != r.node {
					t.Fatalf("seed %d: proc %d on %v: finish=%v rem=%v state=%v node=%d; on star: finish=%v rem=%v state=%v node=%d",
						seed, i, k, p.finishAt, p.remaining, p.state, p.node, r.finishAt, r.remaining, r.state, r.node)
				}
			}
			if st.Makespan != refSt.Makespan || st.MeanSlowdown != refSt.MeanSlowdown {
				t.Fatalf("seed %d: %v makespan %v slowdown %v; star %v %v",
					seed, k, st.Makespan, st.MeanSlowdown, refSt.Makespan, refSt.MeanSlowdown)
			}
		}
	}
}
