package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/sched"
	"ampom/internal/simtime"
)

// These tests pin the fabric refactor's central compatibility contract:
// the default (star) fabric reproduces the pre-fabric scenario engine's
// reports byte for byte. The testdata artefacts were generated by the
// legacy runner (before the interconnect moved into internal/fabric)
// under the explicit five-policy set, so they stay comparable as the
// registry grows.

// legacyFivePolicies is the policy set the goldens were generated under.
var legacyFivePolicies = []string{"AMPoM", "load-vector", "mem-usher", "no-migration", "openMosix"}

// legacyGoldenCases mirrors the generator that produced the testdata
// artefacts exactly; do not edit one without regenerating the other.
func legacyGoldenCases(t *testing.T) map[string]struct {
	spec Spec
	seed uint64
} {
	t.Helper()
	churn, err := Preset("web-churn")
	if err != nil {
		t.Fatal(err)
	}
	churn.Nodes, churn.Procs, churn.NodeMemMB = 8, 32, 0
	churn.Policies = legacyFivePolicies
	for i := range churn.Churn {
		if churn.Churn[i].Node >= 8 {
			churn.Churn[i].Node = 1
		}
	}
	return map[string]struct {
		spec Spec
		seed uint64
	}{
		"small": {Spec{
			Name: "legacy-small", Nodes: 6, Procs: 24, Skew: 0.7,
			MeanFootprintMB: 32, Policies: legacyFivePolicies,
		}, 42},
		"churn": {churn, 1},
		"hetero": {Spec{
			Name: "legacy-hetero", Nodes: 8, Procs: 32,
			SlowFrac: 0.25, FastFrac: 0.25, Skew: 0.5,
			MeanCompute:     4 * simtime.Second,
			MeanFootprintMB: 64,
			Policies:        legacyFivePolicies,
			Churn: []ChurnEvent{
				{At: 3 * simtime.Second, Kind: ChurnSlowNode, Node: 1, Factor: 0.5},
				{At: 5 * simtime.Second, Kind: ChurnBurst, Node: 0, Procs: 8},
			},
		}, 9},
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStarMatchesLegacyGoldens locks that the default star fabric
// reproduces the pre-fabric engine's rendered, JSON and CSV reports
// byte-for-byte — the refactor changed the wiring's home, not one event.
func TestStarMatchesLegacyGoldens(t *testing.T) {
	for name, c := range legacyGoldenCases(t) {
		rep, err := Run(c.spec, c.seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := rep.Render(), readGolden(t, "legacy_star_"+name+".render.golden"); got != want {
			t.Errorf("%s: rendered report diverged from the legacy engine:\n--- got ---\n%s--- want ---\n%s", name, got, want)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := string(js), readGolden(t, "legacy_star_"+name+".json.golden"); got != want {
			t.Errorf("%s: JSON report diverged from the legacy engine", name)
		}
		if got, want := rep.CSV(), readGolden(t, "legacy_star_"+name+".csv.golden"); got != want {
			t.Errorf("%s: CSV report diverged from the legacy engine", name)
		}
	}
}

// fabricTestSpec is a small scenario pinned to one topology, under every
// registered policy (the canonical default set).
func fabricTestSpec(k fabric.Kind) Spec {
	return Spec{
		Name:            "fabric-" + k.String(),
		Nodes:           12,
		Procs:           48,
		Skew:            0.7,
		MeanFootprintMB: 32,
		Fabric:          FabricSpec{Topology: k, RackSize: 4},
	}.Canonical()
}

// TestFabricRunsDeterministic locks per-topology determinism across all
// registered policies: equal (spec, seed) renders byte-identical reports
// on every topology, and different seeds change the outcome.
func TestFabricRunsDeterministic(t *testing.T) {
	for _, k := range fabric.Kinds() {
		spec := fabricTestSpec(k)
		if got := len(spec.Policies); got != len(sched.Names()) {
			t.Fatalf("%v: canonical policy set has %d entries, want the whole registry (%d)", k, got, len(sched.Names()))
		}
		a := MustRun(spec, 7)
		b := MustRun(spec, 7)
		if a.Render() != b.Render() {
			t.Fatalf("%v: same seed rendered different reports", k)
		}
		aj, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		bj, err := b.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Fatalf("%v: same seed rendered different JSON", k)
		}
		if a.CSV() != b.CSV() {
			t.Fatalf("%v: same seed rendered different CSV", k)
		}
		if MustRun(spec, 8).Render() == a.Render() {
			t.Fatalf("%v: changing the seed left the report unchanged", k)
		}
	}
}

// TestFabricTopologyChangesOutcome locks that the topology is
// behaviour-bearing and fingerprinted: the three fabrics run the same
// workload to different reports under distinct job keys.
func TestFabricTopologyChangesOutcome(t *testing.T) {
	seen := map[string]fabric.Kind{}
	renders := map[string]fabric.Kind{}
	for _, k := range fabric.Kinds() {
		spec := fabricTestSpec(k)
		spec.Name = "fabric-shared" // isolate the topology in the fingerprint
		fp := spec.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("topologies %v and %v share fingerprint %q", prev, k, fp)
		}
		seen[fp] = k
		r := MustRun(spec, 7).Render()
		if prev, dup := renders[r]; dup {
			t.Fatalf("topologies %v and %v rendered identical reports", prev, k)
		}
		renders[r] = k
	}
}

// TestTierStatsOnlyOnSwitchedFabrics locks the report-shape contract: tier
// utilisation rows appear exactly on switched fabrics, cover the expected
// tiers, and carry traffic for migrating policies.
func TestTierStatsOnlyOnSwitchedFabrics(t *testing.T) {
	star := MustRun(fabricTestSpec(fabric.KindStar), 7)
	for _, st := range star.Schemes {
		if len(st.TierUse) != 0 {
			t.Fatalf("star run reports tier stats: %+v", st.TierUse)
		}
	}

	twoTier := MustRun(fabricTestSpec(fabric.KindTwoTier), 7)
	for _, st := range twoTier.Schemes {
		if len(st.TierUse) != 2 || st.TierUse[0].Name != "edge" || st.TierUse[1].Name != "core" {
			t.Fatalf("%s: two-tier run reports tiers %+v, want edge+core", st.Policy, st.TierUse)
		}
		if st.TierUse[0].Links != 12 || st.TierUse[1].Links != 3 {
			t.Fatalf("%s: tier link counts %d/%d, want 12 edge and 3 core (rack size 4)",
				st.Policy, st.TierUse[0].Links, st.TierUse[1].Links)
		}
		// Gossip alone moves bytes; migrating policies move far more.
		if st.TierUse[0].Bytes <= 0 {
			t.Fatalf("%s: edge tier carried nothing", st.Policy)
		}
	}
	base, _ := twoTier.Scheme("no-migration")
	om, _ := twoTier.Scheme("openMosix")
	if om.TierUse[1].Bytes <= base.TierUse[1].Bytes {
		t.Fatal("openMosix migrations did not add core-tier traffic over the baseline")
	}

	flat := MustRun(fabricTestSpec(fabric.KindFlat), 7)
	for _, st := range flat.Schemes {
		if len(st.TierUse) != 1 || st.TierUse[0].Name != "edge" {
			t.Fatalf("%s: flat run reports tiers %+v, want a single edge tier", st.Policy, st.TierUse)
		}
	}
}

// TestGossipFabricStillBalances locks the end-to-end value: on a switched
// fabric with gossip-aged information the lightweight policies still beat
// the no-migration baseline on a skewed burst.
func TestGossipFabricStillBalances(t *testing.T) {
	rep := MustRun(fabricTestSpec(fabric.KindTwoTier), 42)
	base := rep.Baseline()
	for _, name := range []string{"AMPoM", "queue-gossip"} {
		st, ok := rep.Scheme(name)
		if !ok {
			t.Fatalf("no %s row", name)
		}
		if st.Migrations == 0 {
			t.Fatalf("%s made no migrations on the skewed burst", name)
		}
		if st.MeanSlowdown >= base.MeanSlowdown {
			t.Fatalf("%s slowdown %.2f did not beat no-migration %.2f", name, st.MeanSlowdown, base.MeanSlowdown)
		}
	}
}
