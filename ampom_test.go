package ampom

import (
	"testing"

	"ampom/internal/sim"
)

// newEngine is shared by the micro-benchmarks.
func newEngine() *sim.Engine { return sim.New() }

func TestFacadeQuickstart(t *testing.T) {
	w, err := BuildWorkload(Entry{Kernel: STREAM, ProblemSize: 8, MemoryMB: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(RunConfig{Workload: w, Scheme: SchemeAMPoM, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Freeze <= 0 || r.Total <= r.Freeze {
		t.Fatalf("degenerate result %+v", r)
	}
}

func TestFacadeCatalogue(t *testing.T) {
	if len(Catalogue()) != 18 {
		t.Fatal("catalogue incomplete")
	}
	if len(Kernels()) != 4 {
		t.Fatal("kernel list incomplete")
	}
}

func TestFacadeSchemes(t *testing.T) {
	w, err := BuildWorkload(ScaleEntry(Catalogue()[0], 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	var prevFreeze Duration
	for i, s := range []Scheme{SchemeNoPrefetch, SchemeAMPoM, SchemeOpenMosix} {
		r, err := Run(RunConfig{Workload: w, Scheme: s, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && r.Freeze <= prevFreeze {
			t.Fatalf("freeze ordering violated at %v", s)
		}
		prevFreeze = r.Freeze
	}
}

func TestFacadeNetworkShaping(t *testing.T) {
	p := ShapeNetwork(FastEthernet(), 6e6, 2_000_000)
	if p.BandwidthBps != 0.75e6 {
		t.Fatalf("shaped profile = %+v", p)
	}
	if Broadband().BandwidthBps != 0.75e6 {
		t.Fatal("broadband profile wrong")
	}
}

func TestFacadePrefetcher(t *testing.T) {
	p, err := NewPrefetcher(DefaultPrefetcherConfig(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p.RecordFault(PageNum(i), Time(i)*1_000_000, 1)
	}
	a := p.Analyze(Estimates{RTT: 20_000_000, PageTransfer: 400_000})
	if a.Score != 1 || a.N == 0 {
		t.Fatalf("sequential analysis = %+v", a)
	}
}

func TestFacadeCampaign(t *testing.T) {
	c := NewCampaign(CampaignConfig{Scale: 32, Seed: 3})
	tab := renderFigure(t, c, "table1")
	if len(tab.Rows) == 0 {
		t.Fatal("campaign table empty")
	}
}

// renderFigure renders one named artefact of c, failing t on any error.
func renderFigure(t testing.TB, c *Campaign, name string) *FigureTable {
	t.Helper()
	out, err := c.Render(name)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	return out[0].Table
}

func TestFacadeWorkingSet(t *testing.T) {
	w, err := BuildWorkingSetWorkload(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.WorkingSetPages >= w.Layout.Pages() {
		t.Fatal("working set not smaller than allocation")
	}
}

func TestFacadeLocality(t *testing.T) {
	w, err := BuildWorkload(Entry{Kernel: STREAM, ProblemSize: 8, MemoryMB: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, tmp := Locality(w)
	if s <= 0.2 {
		t.Fatalf("STREAM spatial = %v", s)
	}
	if tmp > 0.2 {
		t.Fatalf("STREAM temporal = %v", tmp)
	}
}

// TestFacadeCampaignEngine drives the re-exported parallel campaign engine:
// a small scheme sweep must be cache-shared, deterministic across worker
// counts, and reproducible through the derived job seeds.
func TestFacadeCampaignEngine(t *testing.T) {
	jobs := []CampaignJob{
		{Kernel: STREAM, MemoryMB: 8, Scheme: SchemeAMPoM},
		{Kernel: STREAM, MemoryMB: 8, Scheme: SchemeOpenMosix},
		{Kernel: STREAM, MemoryMB: 8, Scheme: SchemeAMPoM}, // duplicate
	}
	seq := NewCampaignEngine(CampaignOptions{Workers: 1, BaseSeed: 9})
	par := NewCampaignEngine(CampaignOptions{Workers: 4, BaseSeed: 9})
	sres, err := seq.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.RunAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Executed() != 2 || par.Executed() != 2 {
		t.Fatalf("executed %d/%d distinct jobs, want 2", seq.Executed(), par.Executed())
	}
	for i := range jobs {
		if sres[i].Total != pres[i].Total || sres[i].HardFaults != pres[i].HardFaults {
			t.Fatalf("job %d: sequential and parallel results differ", i)
		}
	}
	if DeriveJobSeed(9, jobs[0].Fingerprint()) != DeriveJobSeed(9, jobs[2].Fingerprint()) {
		t.Fatal("identical jobs derived different seeds")
	}
	if DeriveJobSeed(9, jobs[0].Fingerprint()) == DeriveJobSeed(10, jobs[0].Fingerprint()) {
		t.Fatal("base seed ignored by seed derivation")
	}
}

// TestFacadePolicyRegistry drives the balancer surface: the registry lists
// the built-ins in sorted order, lookups resolve, and a resolved policy set
// runs through RunScenario with its rows in canonical order.
func TestFacadePolicyRegistry(t *testing.T) {
	names := BalancerPolicyNames()
	if len(names) < 5 {
		t.Fatalf("registry has %d policies, want >= 5: %v", len(names), names)
	}
	for _, want := range []string{PolicyAMPoM, PolicyLoadVector, PolicyMemUsher, PolicyNoMigration, PolicyOpenMosix} {
		if _, ok := LookupBalancerPolicy(want); !ok {
			t.Fatalf("built-in policy %q missing", want)
		}
	}
	pols, err := BalancerPolicies(PolicyAMPoM, PolicyNoMigration)
	if err != nil {
		t.Fatal(err)
	}
	spec := ScenarioSpec{Name: "facade-star", Nodes: 4, Procs: 16}
	for _, p := range pols {
		spec.Policies = append(spec.Policies, p.Name())
	}
	rep, err := RunScenario(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 || rep.Schemes[0].Policy != PolicyAMPoM || rep.Schemes[1].Policy != PolicyNoMigration {
		t.Fatalf("RunScenario rows wrong: %+v", rep.Schemes)
	}
	if rep.Schemes[0].Makespan <= 0 {
		t.Fatalf("AMPoM row degenerate: %+v", rep.Schemes[0])
	}
}

// TestFacadeFabric drives the fabric surface: topology parsing, the
// ScenarioFabric spec block, a switched-fabric run with tier stats and the
// queue-gossip policy, and the report decode/diff round trip.
func TestFacadeFabric(t *testing.T) {
	if _, ok := LookupBalancerPolicy(PolicyQueueGossip); !ok {
		t.Fatalf("built-in policy %q missing", PolicyQueueGossip)
	}
	names := FabricTopologyNames()
	if len(names) != 3 {
		t.Fatalf("topologies %v, want star/two-tier/flat", names)
	}
	k, err := ParseFabricTopology("two-tier")
	if err != nil || k != FabricTwoTier {
		t.Fatalf("ParseFabricTopology = %v, %v", k, err)
	}
	if _, err := ParseFabricTopology("hypercube"); err == nil {
		t.Fatal("unknown topology accepted")
	}

	spec := ScenarioSpec{
		Name: "facade-fabric", Nodes: 8, Procs: 24,
		Policies: []string{PolicyAMPoM, PolicyQueueGossip},
		Fabric:   ScenarioFabric{Topology: FabricTwoTier, RackSize: 4},
	}
	rep, err := RunScenario(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	am, ok := rep.Scheme(PolicyAMPoM)
	if !ok || len(am.TierUse) != 2 {
		t.Fatalf("two-tier run carries tiers %+v", am.TierUse)
	}

	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeScenarioReports(js)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Seed != rep.Seed {
		t.Fatalf("report decode round trip lost the run: %+v", back)
	}
	diffs, err := DiffScenarioReports(js, js)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("identical artefacts diverged: %v", diffs)
	}
	other, err := RunScenario(spec, 8)
	if err != nil {
		t.Fatal(err)
	}
	oj, err := other.JSON()
	if err != nil {
		t.Fatal(err)
	}
	diffs, err = DiffScenarioReports(js, oj)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("different-seed artefacts compared equal")
	}
}

// TestFacadeScenarioSpecIO round-trips a spec and a report through the
// facade's I/O surface.
func TestFacadeScenarioSpecIO(t *testing.T) {
	spec := ScenarioSpec{Name: "facade", Nodes: 4, Procs: 8, Policies: []string{PolicyAMPoM}}
	data, err := EncodeScenarioSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeScenarioSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != spec.Canonical().Fingerprint() {
		t.Fatal("facade spec round trip changed the fingerprint")
	}
	rep, err := RunScenario(back, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Schemes) != 2 { // AMPoM plus the implicit baseline
		t.Fatalf("report has %d rows, want 2", len(rep.Schemes))
	}
	js, err := ScenarioReportsJSON([]*ScenarioReport{rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(js) == 0 || ScenarioReportsCSV([]*ScenarioReport{rep}) == "" {
		t.Fatal("report encoders returned nothing")
	}
}

// TestFacadeCampaignWorkers checks the harness-level Workers plumbing.
func TestFacadeCampaignWorkers(t *testing.T) {
	seq := renderFigure(t, NewCampaign(CampaignConfig{Scale: 16, Seed: 7, Workers: 1}), "table1").Render()
	par := renderFigure(t, NewCampaign(CampaignConfig{Scale: 16, Seed: 7, Workers: 8}), "table1").Render()
	if seq != par {
		t.Fatal("Table 1 differs across worker counts")
	}
}
