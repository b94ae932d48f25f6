package harness

import (
	"context"
	"strings"
	"testing"

	"ampom/internal/campaign"
	"ampom/internal/fabric"
	"ampom/internal/scenario"
	"ampom/internal/sched"
)

// These tests extend the campaign determinism guarantee to cluster
// scenarios: the acceptance-scale preset (64 nodes / 256 processes) and the
// rest of the preset catalogue render byte-identically whatever the worker
// count, sequential vs parallel campaign execution included. `make ci` runs
// this file under the race detector too.

// renderScenarios runs every preset up to 128 nodes through one matrix and
// concatenates the rendered reports. The 512-node rack-farm preset is
// gated separately (a shrunk worker-identity test below, plus the
// BenchmarkFabric512 event-budget gate in `make ci`) so this test stays
// race-detector-sized.
func renderScenarios(t *testing.T, workers int) string {
	t.Helper()
	m := NewMatrix(Config{Scale: 16, Seed: 7, Workers: workers})
	var specs []scenario.Spec
	for _, s := range scenario.Presets() {
		if s.Nodes <= 128 {
			specs = append(specs, s)
		}
	}
	if len(specs) < 5 {
		t.Fatalf("only %d presets under 128 nodes — the preset catalogue shrank", len(specs))
	}
	jobs := make([]campaign.ScenarioJob, len(specs))
	for i, s := range specs {
		jobs[i] = campaign.ScenarioJob{Spec: s}
	}
	reports, err := m.Engine().RunScenariosCtx(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.Render())
		b.WriteString("\n")
	}
	return b.String()
}

func TestScenarioGoldenAcrossWorkers(t *testing.T) {
	seq := renderScenarios(t, 1)
	par := renderScenarios(t, 8)
	if seq != par {
		t.Fatal("scenario reports differ between sequential and 8-way parallel execution")
	}
	rep := renderScenarios(t, 8)
	if par != rep {
		t.Fatal("scenario reports differ between repeated parallel runs")
	}
}

func TestScenarioGoldenAcceptancePreset(t *testing.T) {
	// The pinned 64-node / 256-process scenario, twice with the same seed.
	spec, err := scenario.Preset("hpc-farm")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 64 || spec.Procs != 256 {
		t.Fatalf("hpc-farm is %dn/%dp, want 64/256", spec.Nodes, spec.Procs)
	}
	a, err := NewMatrix(Config{Seed: 7, Workers: 4}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(Config{Seed: 7, Workers: 1}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("equal-seed hpc-farm runs rendered different reports")
	}
}

// TestScenarioGoldenFivePolicyIO locks byte-identical rendered, JSON and
// CSV reports for a five-policy run across 1-way vs 8-way worker pools —
// the determinism hazard a map-ordered policy iteration would trip.
func TestScenarioGoldenFivePolicyIO(t *testing.T) {
	spec := scenario.Spec{
		Name:  "golden-five",
		Nodes: 6,
		Procs: 24,
		Skew:  0.7,
	}.Canonical()
	if len(spec.Policies) < 5 {
		t.Fatalf("canonical policy set %v has fewer than 5 policies", spec.Policies)
	}
	a, err := NewMatrix(Config{Seed: 7, Workers: 1}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(Config{Seed: 7, Workers: 8}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("rendered reports differ between -j 1 and -j 8")
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
		t.Fatal("JSON reports differ between -j 1 and -j 8")
	}
	if a.CSV() != b.CSV() {
		t.Fatal("CSV reports differ between -j 1 and -j 8")
	}
	if len(a.Schemes) != len(spec.Policies) {
		t.Fatalf("report has %d rows for %d policies", len(a.Schemes), len(spec.Policies))
	}
	for i, st := range a.Schemes {
		if st.Policy != spec.Policies[i] {
			t.Fatalf("row %d is %q, want registry-sorted %q", i, st.Policy, spec.Policies[i])
		}
	}
}

// TestFabricGoldenAcrossWorkers locks j1 == j8 byte-identity for every
// fabric topology under every registered policy: rendered, JSON and CSV
// reports are identical whatever the worker count.
func TestFabricGoldenAcrossWorkers(t *testing.T) {
	for _, topo := range []string{"star", "two-tier", "flat"} {
		kind, err := fabric.ParseKind(topo)
		if err != nil {
			t.Fatal(err)
		}
		spec := scenario.Spec{
			Name:            "golden-" + topo,
			Nodes:           10,
			Procs:           40,
			Skew:            0.7,
			MeanFootprintMB: 32,
			Fabric:          scenario.FabricSpec{Topology: kind, RackSize: 4},
		}.Canonical()
		if len(spec.Policies) != len(sched.Names()) {
			t.Fatalf("%s: spec runs %d policies, want the whole registry", topo, len(spec.Policies))
		}
		a, err := NewMatrix(Config{Seed: 7, Workers: 1}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMatrix(Config{Seed: 7, Workers: 8}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if a.Render() != b.Render() {
			t.Fatalf("%s: rendered reports differ between -j 1 and -j 8", topo)
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
			t.Fatalf("%s: JSON reports differ between -j 1 and -j 8", topo)
		}
		if a.CSV() != b.CSV() {
			t.Fatalf("%s: CSV reports differ between -j 1 and -j 8", topo)
		}
	}
}

// TestRackFarmShrunkAcrossWorkers drives the rack-farm preset's exact
// shape (two-tier fabric, slow tier, round-robin ranks) at test scale and
// locks worker-count byte-identity — the acceptance property of
// `ampom-cluster -scenario rack-farm -fabric two-tier -j 8`.
func TestRackFarmShrunkAcrossWorkers(t *testing.T) {
	spec, err := scenario.Preset("rack-farm")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 512 || spec.Procs != 2048 {
		t.Fatalf("rack-farm is %dn/%dp, want 512/2048", spec.Nodes, spec.Procs)
	}
	spec.Nodes, spec.Procs, spec.NodeMemMB = 64, 256, 0
	spec = spec.Canonical()
	a, err := NewMatrix(Config{Seed: 7, Workers: 1}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(Config{Seed: 7, Workers: 8}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("shrunk rack-farm reports differ between -j 1 and -j 8")
	}
	am, ok := a.Scheme("AMPoM")
	if !ok {
		t.Fatal("no AMPoM row")
	}
	if am.Migrations == 0 {
		t.Fatal("rack-farm's slow tier triggered no migrations")
	}
	if len(am.TierUse) != 2 {
		t.Fatalf("rack-farm reports %d tiers, want edge+core", len(am.TierUse))
	}
}

func TestScenarioSeedChangesReport(t *testing.T) {
	spec, err := scenario.Preset("web-churn")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewMatrix(Config{Seed: 7}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(Config{Seed: 8}).Engine().RunScenario(campaign.ScenarioJob{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() == b.Render() {
		t.Fatal("changing the matrix seed left the scenario report unchanged")
	}
}

func TestScenarioMemoisedInMatrix(t *testing.T) {
	m := NewMatrix(Config{Seed: 7, Workers: 4})
	spec, err := scenario.Preset("mpi-ranks")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Engine().RunScenario(campaign.ScenarioJob{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	executed := m.Engine().Executed()
	if _, err := m.Engine().RunScenario(campaign.ScenarioJob{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if got := m.Engine().Executed(); got != executed {
		t.Fatalf("re-running a cached scenario executed %d extra simulations", got-executed)
	}
}
