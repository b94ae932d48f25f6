package harness

import (
	"strings"
	"testing"

	"ampom/internal/campaign"
	"ampom/internal/migrate"
)

// These tests lock in the campaign determinism guarantee: the rendered
// tables are byte-identical whatever the worker count, and across repeated
// runs of the same configuration.

// renderAll renders every figure and ablation into one byte stream.
func renderAll(t *testing.T, m *Matrix) string {
	var b strings.Builder
	for _, tab := range renderTables(t, m, append(catalogueNames(false), catalogueNames(true)...)...) {
		b.WriteString(tab.Render())
		b.WriteString("\n")
	}
	return b.String()
}

func goldenCfg(workers int) Config {
	return Config{Scale: 16, Seed: 7, Workers: workers}
}

func TestTable1DeterministicAcrossWorkers(t *testing.T) {
	seq := render(t, NewMatrix(goldenCfg(1)), "table1").Render()
	par := render(t, NewMatrix(goldenCfg(8)), "table1").Render()
	if seq != par {
		t.Fatalf("Table1 differs between 1 and 8 workers:\n%s\n---\n%s", seq, par)
	}
}

func TestFigure4DeterministicAcrossWorkers(t *testing.T) {
	seq := render(t, NewMatrix(goldenCfg(1)), "fig4").Render()
	par := render(t, NewMatrix(goldenCfg(8)), "fig4").Render()
	if seq != par {
		t.Fatalf("Figure4 differs between 1 and 8 workers:\n%s\n---\n%s", seq, par)
	}
	rep := render(t, NewMatrix(goldenCfg(8)), "fig4").Render()
	if par != rep {
		t.Fatal("Figure4 differs between repeated runs of the same config")
	}
}

// TestCampaignByteIdentical is the full guarantee: every figure and every
// ablation table, sequential vs 8-way parallel vs a repeated parallel run.
func TestCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign comparison in -short mode")
	}
	seq := renderAll(t, NewMatrix(goldenCfg(1)))
	par := renderAll(t, NewMatrix(goldenCfg(8)))
	if seq != par {
		t.Fatal("campaign output differs between sequential and parallel execution")
	}
	rep := renderAll(t, NewMatrix(goldenCfg(8)))
	if par != rep {
		t.Fatal("campaign output differs between repeated parallel runs")
	}
}

// TestSeedChangesOutput guards against the degenerate way to pass the
// determinism tests — ignoring the seed altogether.
func TestSeedChangesOutput(t *testing.T) {
	// Figure 7's fault-request counts on RandomAccess are the most
	// seed-sensitive artefact (its reference stream is the stochastic one).
	a := render(t, NewMatrix(Config{Scale: 16, Seed: 7}), "fig7").Render()
	b := render(t, NewMatrix(Config{Scale: 16, Seed: 8}), "fig7").Render()
	if a == b {
		t.Fatal("changing the campaign seed left Figure 7 unchanged")
	}
}

func TestCampaignJobsDeduplicated(t *testing.T) {
	m := NewMatrix(goldenCfg(0))
	jobs := m.CampaignJobs()
	seen := map[string]bool{}
	for _, j := range jobs {
		fp := j.Fingerprint()
		if seen[fp] {
			t.Fatalf("duplicate fingerprint %q in CampaignJobs", fp)
		}
		seen[fp] = true
	}
	// The matrix must cover at least: 18 catalogue rows × 3 schemes, the
	// Figure 9 broadband cells, the Figure 10 working-set sweep and the
	// ablation sweeps.
	if len(jobs) < 60 {
		t.Fatalf("campaign matrix has %d jobs, expected a fuller matrix", len(jobs))
	}
}

// TestPrewarmSharesCellsWithFigures: one batch over every artefact runs
// exactly the CampaignJobs cells, and rendering the figures and ablations
// again afterwards must not execute a single extra simulation.
func TestPrewarmSharesCellsWithFigures(t *testing.T) {
	m := NewMatrix(goldenCfg(4))
	renderTables(t, m, append(catalogueNames(false), catalogueNames(true)...)...)
	executed := m.Engine().Executed()
	if executed != len(m.CampaignJobs()) {
		t.Fatalf("rendering everything executed %d jobs for a %d-job matrix", executed, len(m.CampaignJobs()))
	}
	for _, tab := range renderTables(t, m, catalogueNames(false)...) {
		if len(tab.Rows) == 0 {
			t.Fatalf("figure %q empty", tab.Title)
		}
	}
	for _, tab := range renderTables(t, m, catalogueNames(true)...) {
		if len(tab.Rows) == 0 {
			t.Fatalf("ablation %q empty", tab.Title)
		}
	}
	if post := m.Engine().Executed(); post != executed {
		t.Fatalf("rendering after the full batch executed %d extra simulations", post-executed)
	}
}

// TestPrewarmFigureCoversRendering: rendering one named figure runs just
// its own cells, once each, leaving nothing for a second rendering to
// simulate; simulation-free artefacts execute nothing, and an unknown
// name is an error that runs nothing.
func TestPrewarmFigureCoversRendering(t *testing.T) {
	m := NewMatrix(goldenCfg(4))
	render(t, m, "fig7")
	warm := m.Engine().Executed()
	if warm == 0 {
		t.Fatal("rendering fig7 executed nothing")
	}
	if want := len(campaign.Dedupe(m.figure7().cells())); warm != want {
		t.Fatalf("rendering fig7 executed %d jobs, want its %d cells", warm, want)
	}
	render(t, m, "fig7")
	if got := m.Engine().Executed(); got != warm {
		t.Fatalf("rendering Figure 7 a second time executed %d extra jobs", got-warm)
	}
	render(t, m, "table1")
	if _, err := m.Render("nonsense"); err == nil {
		t.Fatal("rendering an unknown artefact did not fail")
	}
	if got := m.Engine().Executed(); got != warm {
		t.Fatal("simulation-free renders must not execute jobs")
	}
}

// TestSharedBaselineComputedOnce: the openMosix baseline cell reused across
// Figures 5–7 and the scheme ablation must map to one fingerprint.
func TestSharedBaselineComputedOnce(t *testing.T) {
	m := NewMatrix(goldenCfg(1))
	render(t, m, "fig5")
	after5 := m.Engine().Executed()
	render(t, m, "fig6") // same cells as Figure 5
	if got := m.Engine().Executed(); got != after5 {
		t.Fatalf("Figure 6 executed %d extra jobs after Figure 5", got-after5)
	}
	// The scheme ablation's three paper schemes on DGEMM@575/16 coincide
	// with Figure 5 cells; only the two extra baselines may run.
	render(t, m, "ablation-schemes")
	if got := m.Engine().Executed(); got != after5+2 {
		t.Fatalf("scheme ablation executed %d extra jobs, want 2", got-after5)
	}
}

// TestRenderSkipsArtefactWithFailedCell: an artefact one of whose cells
// has no result is returned with an error naming that cell, not a table.
func TestRenderSkipsArtefactWithFailedCell(t *testing.T) {
	m := NewMatrix(goldenCfg(1))
	p := m.figure7()
	cells := p.cells()
	results := map[string]*migrate.Result{}
	for _, j := range cells[1:] {
		results[j.Fingerprint()] = &migrate.Result{}
	}
	r := p.render(results)
	if r.Table != nil || r.Err == nil || !strings.Contains(r.Err.Error(), cells[0].String()) {
		t.Fatalf("render with a failed cell = %+v, want an error naming %v", r, cells[0])
	}
	if r := m.table1().render(nil); r.Err != nil || len(r.Table.Rows) != 18 {
		t.Fatalf("a cell-free artefact must render without results: %+v", r)
	}
}

// TestNegativeScaleIsRenderError: a negative scale is an error the caller
// sees, with nothing run and no cells enumerated; zero keeps meaning
// paper scale.
func TestNegativeScaleIsRenderError(t *testing.T) {
	m := NewMatrix(Config{Scale: -4, Workers: 1})
	out, err := m.Render("table1")
	if err == nil || out != nil || !strings.Contains(err.Error(), "scale -4") {
		t.Fatalf("Render at scale -4 = %v, %v; want a scale error", out, err)
	}
	if jobs := m.CampaignJobs(); jobs != nil || m.Engine().Executed() != 0 {
		t.Fatalf("scale -4 enumerated %d cells and executed %d jobs, want none", len(jobs), m.Engine().Executed())
	}
	out, err = NewMatrix(Config{Workers: 1}).Render("table1")
	if err != nil || !strings.Contains(out[0].Table.Caption, "scale 1/1") {
		t.Fatalf("Render at scale 0 = %+v, %v; want the paper-scale Table 1", out, err)
	}
}
