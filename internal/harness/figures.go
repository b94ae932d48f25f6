package harness

import (
	"fmt"

	"ampom/internal/campaign"
	"ampom/internal/hpcc"
	"ampom/internal/migrate"
	"ampom/internal/netmodel"
)

// table1 reproduces the paper's Table 1: problem and memory sizes of the
// HPCC configurations (scaled by the campaign scale).
func (m *Matrix) table1() plan {
	p := plan{table: &Table{
		Title:   "Table 1: Problem and memory sizes of HPCC",
		Caption: fmt.Sprintf("(scale 1/%d of the paper's configuration)", m.cfg.Scale),
		Header:  []string{"kernel", "problem size", "memory size (MB)"},
	}}
	for _, k := range hpcc.Kernels() {
		for _, e := range m.entries(k) {
			p.rows = append(p.rows, row{cols: func([]*migrate.Result) []string {
				return []string{k.String(), fmt.Sprint(e.ProblemSize), fmt.Sprint(e.MemoryMB)}
			}})
		}
	}
	return p
}

// figure4 reproduces the locality quadrants: measured spatial and temporal
// locality of each kernel's reference stream. It simulates no migration;
// each row builds and measures its workload when formatted.
func (m *Matrix) figure4() plan {
	p := plan{table: &Table{
		Title:   "Figure 4: HPCC kernels and localities",
		Caption: "measured page-level locality of the modelled kernels",
		Header:  []string{"kernel", "spatial score", "temporal score", "quadrant"},
	}}
	for _, k := range hpcc.Kernels() {
		p.rows = append(p.rows, row{cols: func([]*migrate.Result) []string {
			e := m.entries(k)[0]
			// Measure the exact stream the campaign simulates for this
			// cell: same entry shape and same derived seed as the engine's
			// build.
			job := campaign.Job{Kernel: k, MemoryMB: e.MemoryMB}
			w := hpcc.MustBuild(hpcc.Entry{Kernel: k, ProblemSize: e.MemoryMB, MemoryMB: e.MemoryMB},
				m.eng.SeedFor(job))
			s, tmp := hpcc.Locality(w)
			return []string{k.String(), fmt.Sprintf("%.3f", s), fmt.Sprintf("%.3f", tmp), quadrant(s, tmp)}
		}})
	}
	return p
}

func quadrant(spatial, temporal float64) string {
	sp := "low-spatial"
	if spatial >= 0.3 {
		sp = "high-spatial"
	}
	tm := "low-temporal"
	if temporal >= 0.45 {
		tm = "high-temporal"
	}
	return sp + "/" + tm
}

// Figures 5, 6 and 9 read the paper's three schemes in migrate.Schemes
// order: rs[0] is AMPoM, rs[1] openMosix, rs[2] NoPrefetch.

// figure5 reproduces the migration freeze times of AMPoM, openMosix and
// NoPrefetch across all kernels and sizes.
func (m *Matrix) figure5() plan {
	return m.gridPlan(&Table{
		Title:   "Figure 5: Migration latencies (freeze time, seconds)",
		Caption: "per kernel and program size; log-scale plot in the paper",
		Header:  []string{"kernel", "size (MB)", "AMPoM", "openMosix", "NoPrefetch"},
	}, migrate.Schemes(), func(rs []*migrate.Result) []string {
		return []string{fmtSec(rs[0].Freeze.Seconds()), fmtSec(rs[1].Freeze.Seconds()), fmtSec(rs[2].Freeze.Seconds())}
	})
}

// figure6 reproduces the total execution times.
func (m *Matrix) figure6() plan {
	return m.gridPlan(&Table{
		Title:   "Figure 6: Application performance (total execution time, seconds)",
		Caption: "init + freeze + post-migration execution",
		Header:  []string{"kernel", "size (MB)", "AMPoM", "openMosix", "NoPrefetch", "AMPoM vs oM", "NoPref vs oM"},
	}, migrate.Schemes(), func(rs []*migrate.Result) []string {
		am, om, np := rs[0], rs[1], rs[2]
		return []string{
			fmtSec(am.Total.Seconds()), fmtSec(om.Total.Seconds()), fmtSec(np.Total.Seconds()),
			relTotal(am, om), relTotal(np, om),
		}
	})
}

// relTotal formats r's total execution time relative to the openMosix
// run om.
func relTotal(r, om *migrate.Result) string {
	return fmtPct(100 * (r.Total.Seconds() - om.Total.Seconds()) / om.Total.Seconds())
}

// figure7 reproduces the page-fault-request counts of AMPoM vs NoPrefetch.
func (m *Matrix) figure7() plan {
	return m.gridPlan(&Table{
		Title:   "Figure 7: Number of page fault requests",
		Caption: "demand requests reaching the home node; log-scale plot in the paper",
		Header:  []string{"kernel", "size (MB)", "AMPoM", "NoPrefetch", "prevented"},
	}, []migrate.Scheme{migrate.AMPoM, migrate.NoPrefetch}, func(rs []*migrate.Result) []string {
		am, np := rs[0], rs[1]
		return []string{
			fmt.Sprint(am.HardFaults), fmt.Sprint(np.HardFaults),
			fmt.Sprintf("%.1f%%", 100*am.FaultPrevention(np.HardFaults)),
		}
	})
}

// figure8 reproduces the prefetch aggressiveness: pages prefetched per
// page fault request.
func (m *Matrix) figure8() plan {
	return m.ampomGridPlan(&Table{
		Title:   "Figure 8: Prefetched pages per page fault (request)",
		Caption: "AMPoM adapts aggressiveness to access pattern and paging rate",
		Header:  []string{"kernel", "size (MB)", "prefetched/request", "mean N", "mean S"},
	}, func(am *migrate.Result) []string {
		return []string{
			fmt.Sprintf("%.1f", am.PrefetchPerRequest), fmt.Sprintf("%.1f", am.MeanN), fmt.Sprintf("%.3f", am.MeanScore),
		}
	})
}

// figure9 reproduces the broadband adaptation experiment: execution time
// increase vs openMosix at 100 Mb/s and at tc-shaped 6 Mb/s / 2 ms.
func (m *Matrix) figure9() plan {
	p := plan{table: &Table{
		Title:   "Figure 9: Adaptation to network performances",
		Caption: "% increase in execution time relative to openMosix on the same network",
		Header:  []string{"workload", "network", "AMPoM", "NoPrefetch"},
	}}
	for _, e := range []hpcc.Entry{{Kernel: hpcc.DGEMM, MemoryMB: 115}, {Kernel: hpcc.RandomAccess, MemoryMB: 129}} {
		e = hpcc.Scaled(e, m.cfg.Scale)
		for _, net := range []netmodel.Profile{netmodel.FastEthernet(), netmodel.Broadband()} {
			r := row{cols: func(rs []*migrate.Result) []string {
				return []string{fmt.Sprintf("%v(%dMB)", e.Kernel, e.MemoryMB), net.Name, relTotal(rs[0], rs[1]), relTotal(rs[2], rs[1])}
			}}
			for _, s := range migrate.Schemes() {
				r.cells = append(r.cells, campaign.Job{Kernel: e.Kernel, MemoryMB: e.MemoryMB, Scheme: s, Network: net})
			}
			p.rows = append(p.rows, r)
		}
	}
	return p
}

// figure10 reproduces the small-working-set experiment: modified DGEMM
// that allocates the full footprint but works on a subset.
func (m *Matrix) figure10() plan {
	alloc := m.largest(hpcc.DGEMM)
	p := plan{table: &Table{
		Title:   "Figure 10: Process migration with smaller working sets",
		Caption: fmt.Sprintf("modified DGEMM: %d MB allocated, working set varies", alloc),
		Header:  []string{"working set (MB)", "openMosix", "AMPoM", "AMPoM/openMosix"},
	}}
	for _, frac := range []int64{5, 4, 3, 2, 1} { // 1/5 .. full
		ws := max(alloc/frac, 1)
		r := row{cols: func(rs []*migrate.Result) []string {
			om, am := rs[0], rs[1]
			return []string{
				fmt.Sprint(ws), fmtSec(om.Total.Seconds()), fmtSec(am.Total.Seconds()),
				fmt.Sprintf("%.2f", am.Total.Seconds()/om.Total.Seconds()),
			}
		}}
		for _, s := range []migrate.Scheme{migrate.OpenMosix, migrate.AMPoM} {
			r.cells = append(r.cells, campaign.Job{Kernel: hpcc.DGEMM, MemoryMB: ws, AllocMB: alloc, Scheme: s})
		}
		p.rows = append(p.rows, r)
	}
	return p
}

// figure11 reproduces the AMPoM analysis overhead: time spent determining
// the dependent zone as a percentage of execution time.
func (m *Matrix) figure11() plan {
	return m.ampomGridPlan(&Table{
		Title:   "Figure 11: Overheads of AMPoM",
		Caption: "dependent-zone analysis time as % of total execution time",
		Header:  []string{"kernel", "size (MB)", "overhead (%)"},
	}, func(am *migrate.Result) []string {
		return []string{fmt.Sprintf("%.3f", am.OverheadPct)}
	})
}

// ampomGridPlan is gridPlan over the AMPoM runs alone, the cells Figures 8
// and 11 read.
func (m *Matrix) ampomGridPlan(t *Table, cols func(am *migrate.Result) []string) plan {
	return m.gridPlan(t, []migrate.Scheme{migrate.AMPoM}, func(rs []*migrate.Result) []string { return cols(rs[0]) })
}
