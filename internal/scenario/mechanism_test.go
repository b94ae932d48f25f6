package scenario

import (
	"reflect"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// renamed is the smallest wrapper a caller can write around a policy: it
// embeds sched.BalancerPolicy under a fresh name, and everything else, the
// mechanism included, comes from the embedded policy.
type renamed struct {
	sched.BalancerPolicy
	name string
}

func (r renamed) Name() string { return r.name }

// TestWrappedPolicyChargesLikeItsInner runs openMosix and AMPoM bare and
// wrapped on a small evacuating two-tier cluster with a crash and an uplink
// flap. Every model column of the wrapped run must equal the bare run's.
// An optional interface that an embedding struct hides would break this:
// a wrapped openMosix would ship the lightweight payload.
func TestWrappedPolicyChargesLikeItsInner(t *testing.T) {
	spec := Spec{
		Name:            "wrapped",
		Nodes:           8,
		Procs:           32,
		Skew:            0.7,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 64,
		Fabric:          FabricSpec{Topology: fabric.KindTwoTier, RackSize: 4},
		Evacuate:        true,
		Churn: []ChurnEvent{
			{At: 3 * simtime.Second, Kind: ChurnNodeCrash, Node: 0},
			{At: 5 * simtime.Second, Kind: ChurnLinkDown, Node: -2},
			{At: 7 * simtime.Second, Kind: ChurnLinkUp, Node: -2},
			{At: 9 * simtime.Second, Kind: ChurnNodeRecover, Node: 0},
		},
	}.Canonical()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	scales, tmpl := buildWorkload(spec, 11)
	for _, inner := range []sched.BalancerPolicy{sched.OpenMosixPolicy, sched.AMPoMPolicy} {
		want := newClusterSimShards(spec, scales, tmpl, inner, 11, 1).run()
		got := newClusterSimShards(spec, scales, tmpl, renamed{inner, "wrapped." + inner.Name()}, 11, 1).run()
		if want.Evacuations == 0 || want.Migrations <= want.Evacuations {
			t.Fatalf("%s: %d migrations, %d evacuations: the spec must exercise both", inner.Name(), want.Migrations, want.Evacuations)
		}
		got.Policy = want.Policy
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s wrapped ran differently:\n got  %+v\n want %+v", inner.Name(), got, want)
		}
	}
}
