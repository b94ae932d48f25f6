// Package harness regenerates every table and figure of the paper's
// evaluation (§5): it runs the kernel × size × scheme experiment matrix on
// the simulated Gideon 300 cluster and formats the same rows and series the
// paper reports. Runs are memoised, so figures that share runs (5, 6, 7, 8,
// 11 all come from one matrix) pay for them once.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"ampom/internal/campaign"
	"ampom/internal/hpcc"
	"ampom/internal/texttable"
)

// Config scopes an experiment campaign.
type Config struct {
	// Scale divides every Table 1 footprint (1 or 0 = paper scale, 16 =
	// laptop smoke scale; a negative scale is an error Render reports).
	// Freeze times and totals shrink accordingly, but every qualitative
	// shape survives scaling.
	Scale int64
	// Seed drives all stochastic components.
	Seed uint64
	// Workers bounds the campaign engine's worker pool: 0 means GOMAXPROCS,
	// 1 runs strictly sequentially. Per-job seeds are derived from the job
	// key, so every setting renders byte-identical tables.
	Workers int
	// Progress, when set, receives a sample after every job of a Render
	// batch completes.
	Progress func(campaign.Progress)
}

func (c Config) normalised() Config {
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Matrix renders the paper's tables and figures from campaign results. All
// experiment execution — memoisation, worker pool, seed derivation — lives
// in the campaign engine; the Matrix lays out each artefact's cells (see
// the catalogue) and formats rows.
type Matrix struct {
	cfg Config
	eng *campaign.Engine
}

// NewMatrix returns a matrix backed by a fresh campaign engine.
func NewMatrix(cfg Config) *Matrix {
	cfg = cfg.normalised()
	return &Matrix{
		cfg: cfg,
		eng: campaign.New(campaign.Options{
			Workers:    cfg.Workers,
			BaseSeed:   cfg.Seed,
			OnProgress: cfg.Progress,
		}),
	}
}

// Config returns the campaign configuration.
func (m *Matrix) Config() Config { return m.cfg }

// Engine exposes the backing campaign engine (progress hooks, statistics).
func (m *Matrix) Engine() *campaign.Engine { return m.eng }

// entries returns the scaled Table 1 rows of one kernel.
func (m *Matrix) entries(k hpcc.Kernel) []hpcc.Entry {
	rows := hpcc.CatalogueFor(k)
	out := make([]hpcc.Entry, len(rows))
	for i, e := range rows {
		out[i] = hpcc.Scaled(e, m.cfg.Scale)
	}
	return out
}

// Table is a rendered experiment artefact: a title, a caption tying it to
// the paper, column headers and formatted rows.
type Table struct {
	Title   string
	Caption string
	Header  []string
	Rows    [][]string
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	texttable.Write(&b, t.Header, t.Rows)
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// fmtSec formats seconds with ms precision.
func fmtSec(sec float64) string { return fmt.Sprintf("%.3f", sec) }

// fmtPct formats a percentage.
func fmtPct(p float64) string { return fmt.Sprintf("%+.1f%%", p) }

// sortedSizes returns the distinct scaled sizes of a kernel, ascending.
func (m *Matrix) sortedSizes(k hpcc.Kernel) []int64 {
	var sizes []int64
	for _, e := range m.entries(k) {
		sizes = append(sizes, e.MemoryMB)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	return sizes
}
