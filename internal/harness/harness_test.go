package harness

import (
	"strconv"
	"strings"
	"testing"

	"ampom/internal/campaign"
	"ampom/internal/hpcc"
	"ampom/internal/netmodel"
)

// testMatrix runs at 1/16 scale so the whole suite stays fast.
func testMatrix() *Matrix { return NewMatrix(Config{Scale: 16, Seed: 7}) }

// renderTables renders the named artefacts as one batch, failing t on any
// error.
func renderTables(t testing.TB, m *Matrix, names ...string) []*Table {
	t.Helper()
	out, err := m.Render(names...)
	if err != nil {
		t.Fatal(err)
	}
	tabs := make([]*Table, len(out))
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("%s: %v", names[i], r.Err)
		}
		tabs[i] = r.Table
	}
	return tabs
}

// render renders one artefact.
func render(t testing.TB, m *Matrix, name string) *Table {
	t.Helper()
	return renderTables(t, m, name)[0]
}

// catalogueNames returns the names of the catalogue's figures, or of its
// ablations.
func catalogueNames(ablation bool) []string {
	var names []string
	for _, a := range Artefacts() {
		if a.Ablation == ablation {
			names = append(names, a.Name)
		}
	}
	return names
}

func cell(t *Table, row int, col string) string {
	for i, h := range t.Header {
		if h == col {
			return t.Rows[row][i]
		}
	}
	return ""
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := render(t, testMatrix(), "table1")
	if len(tab.Rows) != 18 {
		t.Fatalf("rows = %d, want 18 (Table 1)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "DGEMM" {
		t.Fatalf("first row = %v", tab.Rows[0])
	}
}

func TestFigure4Quadrants(t *testing.T) {
	tab := render(t, testMatrix(), "fig4")
	got := map[string]string{}
	for i := range tab.Rows {
		got[tab.Rows[i][0]] = cell(tab, i, "quadrant")
	}
	if got["STREAM"] != "high-spatial/low-temporal" {
		t.Errorf("STREAM quadrant = %q", got["STREAM"])
	}
	if got["DGEMM"] != "high-spatial/high-temporal" {
		t.Errorf("DGEMM quadrant = %q", got["DGEMM"])
	}
	if got["RandomAccess"] != "low-spatial/low-temporal" {
		t.Errorf("RandomAccess quadrant = %q", got["RandomAccess"])
	}
	if !strings.HasSuffix(got["FFT"], "high-temporal") {
		t.Errorf("FFT quadrant = %q, want high-temporal", got["FFT"])
	}
}

func TestFigure5FreezeShapes(t *testing.T) {
	m := testMatrix()
	tab := render(t, m, "fig5")
	for i := range tab.Rows {
		am := parseF(t, cell(tab, i, "AMPoM"))
		om := parseF(t, cell(tab, i, "openMosix"))
		np := parseF(t, cell(tab, i, "NoPrefetch"))
		if !(np < am && am < om) {
			t.Fatalf("row %v: freeze ordering violated", tab.Rows[i])
		}
	}
	// openMosix freeze grows linearly with size within each kernel.
	var prevOM float64
	var prevKernel string
	for i := range tab.Rows {
		k := tab.Rows[i][0]
		om := parseF(t, cell(tab, i, "openMosix"))
		if k == prevKernel && om <= prevOM {
			t.Fatalf("openMosix freeze not growing: row %v", tab.Rows[i])
		}
		prevKernel, prevOM = k, om
	}
}

func TestFigure6Shapes(t *testing.T) {
	tab := render(t, testMatrix(), "fig6")
	for i := range tab.Rows {
		amRel := parseF(t, cell(tab, i, "AMPoM vs oM"))
		npRel := parseF(t, cell(tab, i, "NoPref vs oM"))
		if npRel <= 0 {
			t.Fatalf("row %v: NoPrefetch must be slower than openMosix", tab.Rows[i])
		}
		if amRel >= npRel {
			t.Fatalf("row %v: AMPoM must beat NoPrefetch", tab.Rows[i])
		}
		if amRel > 25 || amRel < -40 {
			t.Fatalf("row %v: AMPoM vs openMosix out of band", tab.Rows[i])
		}
	}
}

func TestFigure7Prevention(t *testing.T) {
	tab := render(t, testMatrix(), "fig7")
	for i := range tab.Rows {
		am := parseF(t, cell(tab, i, "AMPoM"))
		np := parseF(t, cell(tab, i, "NoPrefetch"))
		if am >= np {
			t.Fatalf("row %v: AMPoM must send fewer requests", tab.Rows[i])
		}
	}
}

func TestFigure8Ordering(t *testing.T) {
	m := testMatrix()
	tab := render(t, m, "fig8")
	// At the largest size, STREAM prefetches most aggressively and
	// RandomAccess least (Figure 8's ordering).
	last := map[string]float64{}
	for i := range tab.Rows {
		last[tab.Rows[i][0]] = parseF(t, cell(tab, i, "prefetched/request"))
	}
	if last["RandomAccess"] >= last["STREAM"] {
		t.Fatalf("RandomAccess %v not below STREAM %v", last["RandomAccess"], last["STREAM"])
	}
	if last["RandomAccess"] >= last["FFT"] {
		t.Fatalf("RandomAccess %v not below FFT %v", last["RandomAccess"], last["FFT"])
	}
}

func TestFigure9Shapes(t *testing.T) {
	tab := render(t, testMatrix(), "fig9")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		am := parseF(t, cell(tab, i, "AMPoM"))
		np := parseF(t, cell(tab, i, "NoPrefetch"))
		if am >= np {
			t.Fatalf("row %v: AMPoM must outperform NoPrefetch", tab.Rows[i])
		}
	}
	// NoPrefetch degrades more on broadband than on fast ethernet.
	npFastDGEMM := parseF(t, cell(tab, 0, "NoPrefetch"))
	npSlowDGEMM := parseF(t, cell(tab, 1, "NoPrefetch"))
	if npSlowDGEMM <= npFastDGEMM {
		t.Fatalf("NoPrefetch DGEMM: %v on 6Mb/s not worse than %v on 100Mb/s", npSlowDGEMM, npFastDGEMM)
	}
}

func TestFigure10Shapes(t *testing.T) {
	tab := render(t, testMatrix(), "fig10")
	// The AMPoM/openMosix ratio grows towards 1 as the working set grows.
	var prev float64 = -1
	for i := range tab.Rows {
		r := parseF(t, cell(tab, i, "AMPoM/openMosix"))
		if r <= prev {
			t.Fatalf("ratio not increasing: row %v", tab.Rows[i])
		}
		prev = r
	}
	first := parseF(t, cell(tab, 0, "AMPoM/openMosix"))
	if first > 0.6 {
		t.Fatalf("smallest working set ratio = %v, want ≪ 1 (§5.6)", first)
	}
}

func TestFigure11Overheads(t *testing.T) {
	tab := render(t, testMatrix(), "fig11")
	for i := range tab.Rows {
		ov := parseF(t, cell(tab, i, "overhead (%)"))
		if ov < 0 || ov > 0.6 {
			t.Fatalf("row %v: overhead outside the paper's <0.6%% band", tab.Rows[i])
		}
	}
}

func TestAblationBaseline(t *testing.T) {
	tab := render(t, testMatrix(), "ablation-baseline")
	// Baseline off ⇒ more fault requests than the default.
	off := parseF(t, cell(tab, 0, "fault requests"))
	def := parseF(t, cell(tab, 2, "fault requests"))
	if off <= def {
		t.Fatalf("baseline off requests %v not above default %v", off, def)
	}
}

func TestAblationDMax(t *testing.T) {
	tab := render(t, testMatrix(), "ablation-dmax")
	// Narrowing the stride search must never help: fault requests with
	// dmax = 1 are at least those with dmax = 4. (The batch-install
	// dynamics often degenerate STREAM's fault stream to stride-1 runs, so
	// the scores can coincide — the request count is the robust signal.)
	r1 := parseF(t, cell(tab, 0, "fault requests"))
	r4 := parseF(t, cell(tab, 2, "fault requests"))
	if r1 < r4 {
		t.Fatalf("dmax=1 requests %v below dmax=4 requests %v", r1, r4)
	}
	for i := range tab.Rows {
		s := parseF(t, cell(tab, i, "mean S"))
		if s < 0 || s > 1 {
			t.Fatalf("row %v: score out of range", tab.Rows[i])
		}
	}
}

func TestAblationCapMonotone(t *testing.T) {
	tab := render(t, testMatrix(), "ablation-cap")
	// A tighter cap means more fault requests.
	prev := -1.0
	for i := len(tab.Rows) - 1; i >= 0; i-- { // descending cap order
		req := parseF(t, cell(tab, i, "fault requests"))
		if prev >= 0 && req < prev {
			t.Fatalf("requests not monotone in cap: %v", tab.Rows)
		}
		prev = req
	}
}

func TestRenderAndCSV(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Render()
	if !strings.Contains(out, "a    bb") && !strings.Contains(out, "a  ") {
		t.Fatalf("render = %q", out)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestAllFiguresComplete(t *testing.T) {
	m := testMatrix()
	figs := renderTables(t, m, catalogueNames(false)...)
	if len(figs) != 9 {
		t.Fatalf("figures = %d, want 9", len(figs))
	}
	for _, f := range figs {
		if len(f.Rows) == 0 {
			t.Fatalf("figure %q empty", f.Title)
		}
		if out := f.Render(); len(out) == 0 {
			t.Fatalf("figure %q renders empty", f.Title)
		}
	}
}

func TestMatrixMemoisation(t *testing.T) {
	m := testMatrix()
	job := campaign.Job{Kernel: hpcc.STREAM, MemoryMB: 10, Scheme: 2, Network: netmodel.FastEthernet()}
	a, err := m.Engine().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Engine().Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("matrix did not memoise")
	}
}
