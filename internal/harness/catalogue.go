package harness

import (
	"fmt"

	"ampom/internal/campaign"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
)

// Artefact is one table of the evaluation, declared once: the cells it
// reads and how it formats them come from one builder, so rendering,
// CampaignJobs and ampom-bench's -figure names all read the same
// declaration.
type Artefact struct {
	// Name is the artefact's ampom-bench -figure name.
	Name string
	// Ablation marks the studies beyond the paper (ampom-bench -ablations).
	Ablation bool
	build    func(*Matrix) plan
}

// catalogue lists every artefact in output order: Table 1 and Figures
// 4–11 in paper order, then the ablations. CampaignJobs keeps this order
// too, and perfbench hashes results in it.
var catalogue = []Artefact{
	{Name: "table1", build: (*Matrix).table1},
	{Name: "fig4", build: (*Matrix).figure4},
	{Name: "fig5", build: (*Matrix).figure5},
	{Name: "fig6", build: (*Matrix).figure6},
	{Name: "fig7", build: (*Matrix).figure7},
	{Name: "fig8", build: (*Matrix).figure8},
	{Name: "fig9", build: (*Matrix).figure9},
	{Name: "fig10", build: (*Matrix).figure10},
	{Name: "fig11", build: (*Matrix).figure11},
	{Name: "ablation-schemes", Ablation: true, build: (*Matrix).ablationSchemes},
	{Name: "ablation-baseline", Ablation: true, build: (*Matrix).ablationBaseline},
	{Name: "ablation-window", Ablation: true, build: (*Matrix).ablationWindow},
	{Name: "ablation-dmax", Ablation: true, build: (*Matrix).ablationDMax},
	{Name: "ablation-cap", Ablation: true, build: (*Matrix).ablationCap},
}

// Artefacts returns the catalogue in output order.
func Artefacts() []Artefact { return append([]Artefact(nil), catalogue...) }

// plan is one artefact laid out for a matrix: the table's title, caption
// and header, and its rows, each holding the cells it reads and the
// formatter of its columns over exactly those cells' results, in cell
// order. Building a plan simulates nothing.
type plan struct {
	table *Table
	rows  []row
}

type row struct {
	cells []campaign.Job
	cols  func(rs []*migrate.Result) []string
}

// cells returns every cell the plan reads, row by row.
func (p plan) cells() []campaign.Job {
	var jobs []campaign.Job
	for _, r := range p.rows {
		jobs = append(jobs, r.cells...)
	}
	return jobs
}

// Rendered is one artefact's outcome: its table, or the error that kept
// it from being formatted.
type Rendered struct {
	Table *Table
	Err   error
}

// render formats the plan from a batch's results, keyed by fingerprint.
// A cell without a result failed, and the artefact is not formatted.
func (p plan) render(results map[string]*migrate.Result) Rendered {
	t := p.table
	for _, r := range p.rows {
		rs := make([]*migrate.Result, len(r.cells))
		for i, j := range r.cells {
			if rs[i] = results[j.Fingerprint()]; rs[i] == nil {
				return Rendered{Err: fmt.Errorf("cell %v failed", j)}
			}
		}
		t.Rows = append(t.Rows, r.cols(rs))
	}
	return Rendered{Table: t}
}

// Render renders the named artefacts, in the order named. The cells they
// read run first as one batch across the worker pool, each distinct cell
// once; per-job seeds make the tables byte-identical for any worker
// count. A batch with failed cells still completes: err aggregates the
// failures, and each artefact that reads a failed cell comes back with
// Err set instead of a table. An unknown name or a negative scale is an
// error, and nothing runs.
func (m *Matrix) Render(names ...string) ([]Rendered, error) {
	if m.cfg.Scale < 1 {
		return nil, fmt.Errorf("harness: scale %d must be >= 1 (0 means paper scale)", m.cfg.Scale)
	}
	plans := make([]plan, len(names))
	var cells []campaign.Job
	for i, name := range names {
		a, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("harness: unknown artefact %q", name)
		}
		plans[i] = a.build(m)
		cells = append(cells, plans[i].cells()...)
	}
	batch := campaign.Dedupe(cells)
	rs, err := m.eng.RunAll(batch)
	results := make(map[string]*migrate.Result, len(batch))
	for i, j := range batch {
		results[j.Fingerprint()] = rs[i]
	}
	out := make([]Rendered, len(plans))
	for i, p := range plans {
		out[i] = p.render(results)
	}
	return out, err
}

func lookup(name string) (Artefact, bool) {
	for _, a := range catalogue {
		if a.Name == name {
			return a, true
		}
	}
	return Artefact{}, false
}

// CampaignJobs enumerates every cell of the catalogue, deduplicated in
// catalogue order: cells shared between artefacts (the openMosix baseline
// of Figures 5, 6 and 9, the AMPoM runs of Figures 5–8 and 11, the
// default-configuration points of the ablation sweeps) appear once. A
// matrix with a negative scale has no cells; Render reports the error.
func (m *Matrix) CampaignJobs() []campaign.Job {
	if m.cfg.Scale < 1 {
		return nil
	}
	var jobs []campaign.Job
	for _, a := range catalogue {
		jobs = append(jobs, a.build(m).cells()...)
	}
	return campaign.Dedupe(jobs)
}

// gridPlan lays out a table with one row per kernel × size on the testbed
// network, in paper order — the shape Figures 5, 6, 7, 8 and 11 share.
// A row's cells are its runs under schemes, and cols formats them after
// the kernel and size columns.
func (m *Matrix) gridPlan(t *Table, schemes []migrate.Scheme, cols func(rs []*migrate.Result) []string) plan {
	p := plan{table: t}
	fe := netmodel.FastEthernet()
	for _, k := range hpcc.Kernels() {
		for _, mb := range m.sortedSizes(k) {
			r := row{cols: func(rs []*migrate.Result) []string {
				return append([]string{k.String(), fmt.Sprint(mb)}, cols(rs)...)
			}}
			for _, s := range schemes {
				r.cells = append(r.cells, campaign.Job{Kernel: k, MemoryMB: mb, Scheme: s, Network: fe})
			}
			p.rows = append(p.rows, r)
		}
	}
	return p
}

// largest returns the scaled footprint of a kernel's biggest Table 1 row.
func (m *Matrix) largest(k hpcc.Kernel) int64 {
	return hpcc.Scaled(hpcc.Largest(k), m.cfg.Scale).MemoryMB
}
