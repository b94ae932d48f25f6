package campaign

import (
	"context"
	"strings"
	"sync"
	"testing"

	"ampom/internal/fabric"
	"ampom/internal/scenario"
	"ampom/internal/simtime"
)

func testScenario(name string) ScenarioJob {
	return ScenarioJob{Spec: scenario.Spec{
		Name:            name,
		Nodes:           4,
		Procs:           8,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
	}.Canonical()}
}

func TestScenarioSingleFlight(t *testing.T) {
	e := New(Options{Workers: 8, BaseSeed: 7})
	const callers = 16
	reports := make([]*scenario.Report, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := e.RunScenario(testScenario("sf"))
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = r
		}(i)
	}
	wg.Wait()
	if e.Executed() != 1 {
		t.Fatalf("%d callers executed %d simulations, want 1", callers, e.Executed())
	}
	for i := 1; i < callers; i++ {
		if reports[i] != reports[0] {
			t.Fatal("single-flight callers received different report pointers")
		}
	}
}

func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	jobs := []ScenarioJob{testScenario("a"), testScenario("b"), testScenario("c")}
	render := func(workers int) string {
		e := New(Options{Workers: workers, BaseSeed: 7})
		reports, err := e.RunScenariosCtx(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range reports {
			b.WriteString(r.Render())
		}
		return b.String()
	}
	if render(1) != render(8) {
		t.Fatal("scenario batch differs between 1 and 8 workers")
	}
}

func TestScenarioSeedDerivation(t *testing.T) {
	e := New(Options{BaseSeed: 7})
	j := testScenario("seed")
	if e.SeedForScenario(j) != DeriveSeed(7, j.Fingerprint()) {
		t.Fatal("scenario seed not derived from (base, fingerprint)")
	}
	r, err := e.RunScenario(j)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != e.SeedForScenario(j) {
		t.Fatalf("report ran with seed %d, want %d", r.Seed, e.SeedForScenario(j))
	}
	// Distinct specs must draw distinct seeds (namespaced fingerprints).
	if e.SeedForScenario(testScenario("a")) == e.SeedForScenario(testScenario("b")) {
		t.Fatal("distinct scenarios share a seed")
	}
}

func TestScenarioFailureAggregation(t *testing.T) {
	bad := ScenarioJob{Spec: scenario.Spec{Name: "bad", Nodes: 4, Skew: 3}}
	e := New(Options{Workers: 4, BaseSeed: 7})
	reports, err := e.RunScenariosCtx(context.Background(), []ScenarioJob{testScenario("ok"), bad})
	if err == nil {
		t.Fatal("invalid scenario did not fail the batch")
	}
	re, ok := err.(*RunError[ScenarioJob])
	if !ok {
		t.Fatalf("error is %T, want *RunError[ScenarioJob]", err)
	}
	if len(re.Failures) != 1 || re.Total != 2 {
		t.Fatalf("got %d/%d failures, want 1/2", len(re.Failures), re.Total)
	}
	if reports[0] == nil {
		t.Fatal("healthy scenario did not complete")
	}
	if reports[1] != nil {
		t.Fatal("failed scenario returned a report")
	}
}

func TestScenarioFingerprintNamespaced(t *testing.T) {
	if !strings.HasPrefix(testScenario("x").Fingerprint(), "scenario|") {
		t.Fatal("scenario fingerprints must not collide with migration-job fingerprints")
	}
}

// TestScenarioShardsOutsideFingerprint locks that the shard count is an
// execution strategy: it changes neither the job fingerprint (cache key,
// seed) nor one byte of the report, and the single-flight cache therefore
// shares work across shard counts.
func TestScenarioShardsOutsideFingerprint(t *testing.T) {
	fab := scenario.FabricSpec{Topology: fabric.KindTwoTier, RackSize: 2}
	spec := scenario.Spec{
		Name:            "shards-fp",
		Nodes:           4,
		Procs:           8,
		MeanCompute:     4 * simtime.Second,
		MeanFootprintMB: 32,
		Fabric:          fab,
	}.Canonical()
	seq := ScenarioJob{Spec: spec}
	sharded := ScenarioJob{Spec: spec, Shards: 2}
	if seq.Fingerprint() != sharded.Fingerprint() {
		t.Fatalf("shard count leaked into the fingerprint: %q != %q", seq.Fingerprint(), sharded.Fingerprint())
	}

	a, err := New(Options{BaseSeed: 7}).RunScenario(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{BaseSeed: 7}).RunScenario(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("sharded campaign run rendered a different report than the sequential run")
	}

	e := New(Options{BaseSeed: 7})
	if _, err := e.RunScenario(seq); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunScenario(sharded); err != nil {
		t.Fatal(err)
	}
	if e.Executed() != 1 {
		t.Fatalf("shard counts missed the single-flight cache: executed %d, want 1", e.Executed())
	}
}
