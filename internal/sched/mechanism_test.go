package sched

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/simtime"
)

// TestEstimateVersusCharge rebuilds each mechanism's decision estimate from
// its charge plus the named terms of the Mechanism doc, and nothing else,
// over a grid of footprints, working-set fractions and destination CPU
// scales. The view's bandwidth and the path's are equal here, so the
// bandwidth term is zero. Each other term must be non-zero somewhere on the
// grid, or the check would not see it.
func TestEstimateVersusCharge(t *testing.T) {
	var sawFrac, sawMPT bool
	for _, mb := range []int64{1, 64, 192, 575} {
		for _, ws := range []float64{0, 0.25, 1} {
			for _, cpu := range []float64{0.5, 1, 2} {
				for _, bw := range []float64{11.36e6, 1.25e8} {
					pagesF := float64(mb) * 1e6 / 4096
					pagesI := mb * 1e6 / 4096
					// The page-count term: the estimate's fractional page.
					frac := pagesF - float64(pagesI)
					sawFrac = sawFrac || frac != 0
					at := func(m Mechanism) (freeze, extra simtime.Duration, payload int64, r RestoreCharge) {
						freeze, extra = m.Estimate(mb, ws, bw)
						return freeze, extra, m.PayloadBytes(mb), m.Restore(mb, ws, cpu, bw)
					}

					// Full copy: the estimate prices the pages. The PCB and the
					// 64 B per-page framing ship unpriced; the restore is the
					// protocol base cost and nothing streams after resume.
					freeze, extra, payload, r := at(FullCopy)
					unpriced := int64(cluster.RegisterBytes) + pagesI*64
					if want := simtime.FromSeconds((float64(payload-unpriced)+frac*4096)/bw) + r.CPU; freeze != want {
						t.Errorf("full copy %d MB at %g B/s: estimated freeze %v, charge plus terms %v", mb, bw, freeze, want)
					}
					if extra != 0 || r != (RestoreCharge{CPU: cluster.MigrationBase}) || FullCopy.PagesAfterResume() {
						t.Errorf("full copy %d MB: extra %v, restore %+v: nothing may page after resume", mb, extra, r)
					}

					// Lightweight: the estimate prices the MPT. The three pages
					// and the PCB ship unpriced; the MPT install is truncated to
					// whole µs in the estimate and scaled by the destination CPU
					// in the charge.
					freeze, extra, payload, r = at(Lightweight)
					unpriced = 3*4096 + cluster.RegisterBytes
					mptEst := simtime.Duration(pagesF*3) * simtime.Microsecond
					mptChg := simtime.Duration(float64(simtime.Duration(pagesI)*cluster.MPTEntryCPU) / cpu)
					sawMPT = sawMPT || mptEst != mptChg
					if want := simtime.FromSeconds((float64(payload-unpriced)+frac*6)/bw) + (r.CPU - mptChg) + mptEst; freeze != want {
						t.Errorf("lightweight %d MB on CPU %g at %g B/s: estimated freeze %v, charge plus terms %v", mb, cpu, bw, freeze, want)
					}
					if r.CPU-mptChg != cluster.MigrationBase {
						t.Errorf("lightweight %d MB on CPU %g: restore CPU %v is not the base cost plus the MPT install %v", mb, cpu, r.CPU, mptChg)
					}
					if r.WSPages != int64(float64(pagesI)*ws) || r.Stream != simtime.FromSeconds(float64(r.StreamBytes())/bw) {
						t.Errorf("lightweight %d MB, ws %g: restore %+v does not stream whole working-set pages", mb, ws, r)
					}
					if want := simtime.FromSeconds((float64(pagesI) + frac) * 4096 * ws / bw); extra != want {
						t.Errorf("lightweight %d MB, ws %g: estimated extra %v, charge plus terms %v", mb, ws, extra, want)
					}
					if !Lightweight.PagesAfterResume() {
						t.Error("lightweight must page after resume")
					}

					// The baseline: no estimate, and an evacuee ships the
					// lightweight payload but is restored with the base cost
					// alone and pages nothing.
					freeze, extra, payload, r = at(EvacuationOnly)
					if freeze != 0 || extra != 0 {
						t.Errorf("evacuation-only estimates (%v, %v), want zero", freeze, extra)
					}
					if payload != Lightweight.PayloadBytes(mb) || r != (RestoreCharge{CPU: cluster.MigrationBase}) || EvacuationOnly.PagesAfterResume() {
						t.Errorf("evacuation-only %d MB: payload %d, restore %+v: want the lightweight payload, the base cost and no paging", mb, payload, r)
					}
				}
			}
		}
	}
	if !sawFrac || !sawMPT {
		t.Fatalf("grid left a term at zero everywhere: fractional page %v, MPT install %v", sawFrac, sawMPT)
	}
}
