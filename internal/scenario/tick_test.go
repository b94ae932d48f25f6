package scenario

import (
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// tickSpec is churnSpec pinned to the two-tier fabric — the topology whose
// quantum tick is decomposed into per-rack-band sub-events.
func tickSpec(seed uint64) Spec {
	s := churnSpec(seed)
	s.Name = "tick-churn"
	s.Fabric.Topology = fabric.KindTwoTier
	return s.Canonical()
}

// monolithicSim builds a two-tier sim that keeps the whole-cluster
// single-event ticker — the reference the decomposition is compared
// against.
func monolithicSim(spec Spec, scales []float64, tmpl []procTemplate, pol sched.BalancerPolicy, seed uint64) *clusterSim {
	forceMonolithicTick = true
	defer func() { forceMonolithicTick = false }()
	return newClusterSimShards(spec, scales, tmpl, pol, seed, 1)
}

// TestBandTickMatchesMonolithic is the decomposition's central property:
// under random churn/balloon/migration sequences and every registered
// policy, the per-band tick sub-events leave every process with exactly
// the state — remaining demand, completion instant, lifecycle state,
// residence — a monolithic whole-cluster tick produces, at every quantum.
// Both sims are driven in lockstep through virtual time, pausing just past
// each quantum's epilogue instant so the decomposed run's completion
// aggregation has fired before each comparison.
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
			dec := newClusterSimShards(spec, scales, tmpl, pol, seed, 1)
			mono := monolithicSim(spec, scales, tmpl, pol, seed)
			name := pol.Name()
			if dec.bands == 0 || dec.bandEng == nil {
				t.Fatalf("seed %d/%s: two-tier sim did not decompose its tick", seed, name)
			}
			if wantBands := (spec.Nodes + spec.Fabric.RackSize - 1) / spec.Fabric.RackSize; dec.bands != wantBands {
				t.Fatalf("seed %d/%s: %d bands, want %d (rack geometry)", seed, name, dec.bands, wantBands)
			}
			if mono.bands != 0 {
				t.Fatalf("seed %d/%s: forced-monolithic sim decomposed anyway", seed, name)
			}

			at := simtime.Time(spec.Quantum)
			for q := 1; ; q++ {
				if at > dec.horizon {
					t.Fatalf("seed %d/%s: scenario never completed inside the horizon", seed, name)
				}
				edge := at.Add(tickEpilogueLag)
				dec.eng.Run(edge)
				mono.eng.Run(edge)
				if dec.doneN != mono.doneN {
					t.Fatalf("seed %d/%s quantum %d: doneN %d (decomposed) != %d (monolithic)",
						seed, name, q, dec.doneN, mono.doneN)
				}
				for i := range dec.procs {
					d, m := dec.procs[i], mono.procs[i]
					if d.remaining != m.remaining || d.finishAt != m.finishAt ||
						d.state != m.state || d.node != m.node {
						t.Fatalf("seed %d/%s quantum %d: proc %d diverged:\ndecomposed rem=%v finish=%v state=%v node=%d\nmonolithic rem=%v finish=%v state=%v node=%d",
							seed, name, q, d.t.id,
							d.remaining, d.finishAt, d.state, d.node,
							m.remaining, m.finishAt, m.state, m.node)
					}
				}
				if dec.doneN == len(dec.procs) {
					break
				}
				at = at.Add(spec.Quantum)
			}
			if dec.st.Makespan != mono.st.Makespan {
				t.Fatalf("seed %d/%s: makespan %v (decomposed) != %v (monolithic)",
					seed, name, dec.st.Makespan, mono.st.Makespan)
			}
		}
	}
}

// TestBandTickMatchesMonolithicStats runs both tick implementations end to
// end and compares the full per-policy statistics. Only the processed
// event count (the decomposition schedules more, smaller events) and the
// sharding telemetry may differ; every model output must be identical.
func TestBandTickMatchesMonolithicStats(t *testing.T) {
	spec := tickSpec(2)
	scales, tmpl := buildWorkload(spec, 2)
	pols, err := sched.ByNames(spec.Policies)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range pols {
		dec := newClusterSimShards(spec, scales, tmpl, pol, 2, 1).run()
		mono := monolithicSim(spec, scales, tmpl, pol, 2).run()
		if dec.Events <= mono.Events {
			t.Fatalf("%s: decomposed run processed %d events, monolithic %d — decomposition should add per-band sub-events",
				pol.Name(), dec.Events, mono.Events)
		}
		dec.Events, mono.Events = 0, 0
		dec.Sharding, mono.Sharding = nil, nil
		if !reflect.DeepEqual(dec, mono) {
			t.Fatalf("%s: model outputs diverge:\ndecomposed %+v\nmonolithic %+v", pol.Name(), dec, mono)
		}
	}
}
