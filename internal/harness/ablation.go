package harness

import (
	"fmt"

	"ampom/internal/campaign"
	"ampom/internal/core"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
)

// Ablations go beyond the paper: they isolate the design choices DESIGN.md
// calls out by re-running representative workloads with one knob changed.

// sweep lays out a one-knob ablation of the AMPoM prefetcher: one run of
// kernel k's largest footprint per value, with set applying the value to
// the paper's default configuration. The campaign fingerprint covers the
// configuration, so variants cache independently and the default point is
// shared with the figures. cols formats one value's row.
func sweep[V any](m *Matrix, t *Table, k hpcc.Kernel, vals []V, set func(*core.Config, V), cols func(V, *migrate.Result) []string) plan {
	p := plan{table: t}
	mb := m.largest(k)
	for _, v := range vals {
		cfg := core.DefaultConfig()
		set(&cfg, v)
		p.rows = append(p.rows, row{
			cells: []campaign.Job{{Kernel: k, MemoryMB: mb, Scheme: migrate.AMPoM, AMPoM: cfg}},
			cols:  func(rs []*migrate.Result) []string { return cols(v, rs[0]) },
		})
	}
	return p
}

// ablationBaseline compares the §5.3 read-ahead baseline against pure
// Eq. 3 sizing on RandomAccess — the workload whose S ≈ 0 makes the
// baseline the only source of prefetching.
func (m *Matrix) ablationBaseline() plan {
	return sweep(m, &Table{
		Title:   "Ablation: read-ahead baseline (RandomAccess)",
		Caption: "BaselineScore floors the zone size when the pattern is unclear (§5.3)",
		Header:  []string{"baseline", "total (s)", "fault requests", "prefetched/request"},
	}, hpcc.RandomAccess, []float64{-1, 0.2, core.DefaultBaselineScore, 0.9},
		func(c *core.Config, v float64) { c.BaselineScore = v },
		func(bl float64, r *migrate.Result) []string {
			name := fmt.Sprintf("%.2f", bl)
			if bl < 0 {
				name = "off"
			}
			return []string{name, fmtSec(r.Total.Seconds()), fmt.Sprint(r.HardFaults), fmt.Sprintf("%.1f", r.PrefetchPerRequest)}
		})
}

// ablationWindow sweeps the lookback window length l on DGEMM.
func (m *Matrix) ablationWindow() plan {
	return sweep(m, &Table{
		Title:   "Ablation: lookback window length l (DGEMM)",
		Caption: "the paper fixes l = 20 'so that the analysis overhead could be limited' (§4)",
		Header:  []string{"l", "total (s)", "fault requests", "overhead (%)"},
	}, hpcc.DGEMM, []int{5, 10, 20, 40, 80},
		func(c *core.Config, v int) { c.WindowLen = v },
		func(l int, r *migrate.Result) []string {
			return []string{fmt.Sprint(l), fmtSec(r.Total.Seconds()), fmt.Sprint(r.HardFaults), fmt.Sprintf("%.3f", r.OverheadPct)}
		})
}

// ablationDMax sweeps the maximum stride searched on STREAM, whose
// interleaved sweeps need d ≥ 3 to be recognised.
func (m *Matrix) ablationDMax() plan {
	return sweep(m, &Table{
		Title:   "Ablation: maximum stride dmax (STREAM)",
		Caption: "STREAM's triad is three interleaved sequential streams — a stride-3 pattern",
		Header:  []string{"dmax", "total (s)", "fault requests", "mean S"},
	}, hpcc.STREAM, []int{1, 2, 4, 8},
		func(c *core.Config, v int) { c.DMax = v },
		func(d int, r *migrate.Result) []string {
			return []string{fmt.Sprint(d), fmtSec(r.Total.Seconds()), fmt.Sprint(r.HardFaults), fmt.Sprintf("%.3f", r.MeanScore)}
		})
}

// ablationCap sweeps the per-fault prefetch cap on STREAM, the kernel that
// drives the deepest zones.
func (m *Matrix) ablationCap() plan {
	return sweep(m, &Table{
		Title:   "Ablation: prefetch cap MaxPrefetch (STREAM)",
		Caption: "a safety valve against mis-estimated N flooding the network",
		Header:  []string{"cap", "total (s)", "fault requests", "prefetched/request"},
	}, hpcc.STREAM, []int{8, 32, 128, 512},
		func(c *core.Config, v int) { c.MaxPrefetch = v },
		func(cap int, r *migrate.Result) []string {
			return []string{fmt.Sprint(cap), fmtSec(r.Total.Seconds()), fmt.Sprint(r.HardFaults), fmt.Sprintf("%.1f", r.PrefetchPerRequest)}
		})
}

// ablationSchemes compares all five migration mechanisms — the paper's
// three plus the FFA-with-file-server and V-system precopy baselines its
// Figure 2 and related work describe — on the largest DGEMM.
func (m *Matrix) ablationSchemes() plan {
	p := plan{table: &Table{
		Title:   "Ablation: migration mechanisms (DGEMM)",
		Caption: "the paper's three schemes plus the Figure 2 / related-work baselines",
		Header:  []string{"scheme", "freeze (s)", "precopy (s)", "total (s)", "fault requests", "MB moved"},
	}}
	mb := m.largest(hpcc.DGEMM)
	for _, s := range migrate.AllSchemes() {
		p.rows = append(p.rows, row{
			cells: []campaign.Job{{Kernel: hpcc.DGEMM, MemoryMB: mb, Scheme: s}},
			cols: func(rs []*migrate.Result) []string {
				r := rs[0]
				return []string{
					s.String(), fmtSec(r.Freeze.Seconds()), fmtSec(r.Precopy.Seconds()),
					fmtSec(r.Total.Seconds()), fmt.Sprint(r.HardFaults),
					fmt.Sprintf("%.1f", float64(r.BytesToDest)/1e6),
				}
			},
		})
	}
	return p
}
