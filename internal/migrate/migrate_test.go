package migrate

import (
	"strings"
	"testing"

	"ampom/internal/hpcc"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// MustRun is Run panicking on error.
func MustRun(cfg RunConfig) *Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// smallWorkload builds a fast, reduced-scale kernel run.
func smallWorkload(t *testing.T, k hpcc.Kernel, div int64) *hpcc.Workload {
	t.Helper()
	w, err := hpcc.Build(hpcc.Scaled(hpcc.Largest(k), div), 11)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func runScheme(t *testing.T, w *hpcc.Workload, s Scheme) *Result {
	t.Helper()
	r, err := Run(RunConfig{Workload: w, Scheme: s, Seed: 5})
	if err != nil {
		t.Fatalf("%v/%v: %v", w.Name, s, err)
	}
	return r
}

func TestSchemeString(t *testing.T) {
	if OpenMosix.String() != "openMosix" || NoPrefetch.String() != "NoPrefetch" || AMPoM.String() != "AMPoM" {
		t.Fatal("scheme names wrong")
	}
	if len(Schemes()) != 3 {
		t.Fatal("scheme list wrong")
	}
}

func TestNilWorkloadRejected(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("nil workload accepted")
	}
}

func TestUnknownSchemeRejected(t *testing.T) {
	w := smallWorkload(t, hpcc.STREAM, 32)
	if _, err := Run(RunConfig{Workload: w, Scheme: Scheme(99)}); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Fatalf("unknown scheme: got error %v, want an unknown-scheme error", err)
	}
}

func TestOpenMosixNeverFaults(t *testing.T) {
	w := smallWorkload(t, hpcc.STREAM, 32)
	r := runScheme(t, w, OpenMosix)
	if r.Faults != 0 || r.HardFaults != 0 {
		t.Fatalf("openMosix faulted: %+v", r)
	}
	// Freeze moves the whole dirty footprint.
	if r.BytesToDest < w.Layout.Bytes() {
		t.Fatalf("freeze moved %d bytes, want >= %d", r.BytesToDest, w.Layout.Bytes())
	}
}

func TestNoPrefetchFaultsOncePerPage(t *testing.T) {
	w := smallWorkload(t, hpcc.STREAM, 32)
	r := runScheme(t, w, NoPrefetch)
	// Every page except the three freeze pages demand-faults exactly once.
	wantMax := w.Layout.Pages() - 3
	if r.HardFaults > wantMax {
		t.Fatalf("hard faults %d > pages-3 %d", r.HardFaults, wantMax)
	}
	// The stream touches essentially the whole heap.
	if r.HardFaults < w.WorkingSetPages*95/100 {
		t.Fatalf("hard faults %d, want ≈ working set %d", r.HardFaults, w.WorkingSetPages)
	}
	if r.PrefetchPages != 0 {
		t.Fatal("NoPrefetch prefetched")
	}
}

func TestAMPoMPreventsFaults(t *testing.T) {
	for _, k := range []hpcc.Kernel{hpcc.DGEMM, hpcc.STREAM, hpcc.FFT} {
		w := smallWorkload(t, k, 32)
		np := runScheme(t, w, NoPrefetch)
		am := runScheme(t, w, AMPoM)
		prev := am.FaultPrevention(np.HardFaults)
		if prev < 0.85 {
			t.Errorf("%v: prevention = %.3f, want >= 0.85 (paper 97-99%%)", k, prev)
		}
	}
}

func TestAMPoMRandomAccessPreventsLess(t *testing.T) {
	w := smallWorkload(t, hpcc.RandomAccess, 32)
	np := runScheme(t, w, NoPrefetch)
	am := runScheme(t, w, AMPoM)
	prev := am.FaultPrevention(np.HardFaults)
	seq := runScheme(t, smallWorkload(t, hpcc.STREAM, 32), AMPoM)
	npSeq := runScheme(t, smallWorkload(t, hpcc.STREAM, 32), NoPrefetch)
	if prev >= seq.FaultPrevention(npSeq.HardFaults) {
		t.Fatalf("RandomAccess prevention %.3f not below STREAM's", prev)
	}
	if prev < 0.3 {
		t.Fatalf("RandomAccess prevention %.3f collapsed (read-ahead baseline broken?)", prev)
	}
}

func TestFreezeTimeOrdering(t *testing.T) {
	w := smallWorkload(t, hpcc.DGEMM, 16)
	om := runScheme(t, w, OpenMosix)
	np := runScheme(t, w, NoPrefetch)
	am := runScheme(t, w, AMPoM)
	// Figure 5's ordering: NoPrefetch < AMPoM << openMosix.
	if !(np.Freeze < am.Freeze && am.Freeze < om.Freeze) {
		t.Fatalf("freeze ordering violated: np=%v am=%v om=%v", np.Freeze, am.Freeze, om.Freeze)
	}
	if om.Freeze < 10*am.Freeze {
		t.Fatalf("openMosix freeze %v not ≫ AMPoM freeze %v", om.Freeze, am.Freeze)
	}
}

func TestTotalTimeOrdering(t *testing.T) {
	// Figure 6's shape: AMPoM ≈ openMosix, NoPrefetch clearly slower.
	for _, k := range hpcc.Kernels() {
		w := smallWorkload(t, k, 16)
		om := runScheme(t, w, OpenMosix)
		np := runScheme(t, w, NoPrefetch)
		am := runScheme(t, w, AMPoM)
		if np.Total <= om.Total {
			t.Errorf("%v: NoPrefetch %v not slower than openMosix %v", k, np.Total, om.Total)
		}
		ratio := am.Total.Seconds() / om.Total.Seconds()
		if ratio > 1.25 || ratio < 0.6 {
			t.Errorf("%v: AMPoM/openMosix = %.2f outside sane band", k, ratio)
		}
		if np.Total <= am.Total {
			t.Errorf("%v: NoPrefetch %v not slower than AMPoM %v", k, np.Total, am.Total)
		}
	}
}

// TestPaperAnchors pins the §5.2 calibration: a 575 MB DGEMM freezes in
// ≈53.9 s under openMosix, ≈0.6 s under AMPoM, ≈0.07 s under NoPrefetch.
func TestPaperAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale anchor run")
	}
	w, err := hpcc.Build(hpcc.Largest(hpcc.DGEMM), 1)
	if err != nil {
		t.Fatal(err)
	}
	within := func(got simtime.Duration, wantSec, tol float64) bool {
		return got.Seconds() > wantSec*(1-tol) && got.Seconds() < wantSec*(1+tol)
	}
	om := runScheme(t, w, OpenMosix)
	if !within(om.Freeze, 53.9, 0.05) {
		t.Errorf("openMosix freeze = %v, want ≈53.9s (paper §5.2)", om.Freeze)
	}
	np := runScheme(t, w, NoPrefetch)
	if !within(np.Freeze, 0.07, 0.15) {
		t.Errorf("NoPrefetch freeze = %v, want ≈0.07s (paper §5.2)", np.Freeze)
	}
	am := runScheme(t, w, AMPoM)
	if !within(am.Freeze, 0.6, 0.10) {
		t.Errorf("AMPoM freeze = %v, want ≈0.6s (paper §5.2)", am.Freeze)
	}
	// §5.4: AMPoM avoids ≈98 % of DGEMM page fault requests.
	if prev := am.FaultPrevention(np.HardFaults); prev < 0.95 {
		t.Errorf("prevention = %.3f, want >= 0.95 (paper 98%%)", prev)
	}
	// Abstract: 0-5 % overhead vs openMosix; our simulator overlaps a
	// little, so accept a modest win as well.
	ratio := am.Total.Seconds() / om.Total.Seconds()
	if ratio < 0.9 || ratio > 1.08 {
		t.Errorf("AMPoM/openMosix = %.3f, want ≈1.0", ratio)
	}
}

func TestFreezeGrowsLinearlyForOpenMosix(t *testing.T) {
	w1 := smallWorkload(t, hpcc.DGEMM, 16) // ~35MB
	w2 := smallWorkload(t, hpcc.DGEMM, 8)  // ~71MB
	f1 := runScheme(t, w1, OpenMosix).Freeze
	f2 := runScheme(t, w2, OpenMosix).Freeze
	ratio := f2.Seconds() / f1.Seconds()
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("freeze ratio for 2x size = %.2f, want ≈2 (linear growth, Figure 5)", ratio)
	}
}

func TestAMPoMFreezeDominatedByMPT(t *testing.T) {
	w := smallWorkload(t, hpcc.DGEMM, 8)
	am := runScheme(t, w, AMPoM)
	np := runScheme(t, w, NoPrefetch)
	mptOnly := am.Freeze - np.Freeze
	perPage := mptOnly.Seconds() / float64(w.Layout.Pages())
	// 6 bytes of transfer plus ~3 µs install per entry.
	if perPage < 2e-6 || perPage > 6e-6 {
		t.Fatalf("MPT cost per page = %.2g s, want ≈3.5 µs", perPage)
	}
}

func TestWorkingSetScenario(t *testing.T) {
	// §5.6: with a small working set inside a big allocation, AMPoM beats
	// openMosix outright.
	full, err := hpcc.BuildWorkingSet(72, 72, 3)
	if err != nil {
		t.Fatal(err)
	}
	small, err := hpcc.BuildWorkingSet(72, 18, 3)
	if err != nil {
		t.Fatal(err)
	}
	omSmall := runScheme(t, small, OpenMosix)
	amSmall := runScheme(t, small, AMPoM)
	if amSmall.Total.Seconds() > 0.6*omSmall.Total.Seconds() {
		t.Fatalf("small-ws AMPoM %v not ≪ openMosix %v", amSmall.Total, omSmall.Total)
	}
	omFull := runScheme(t, full, OpenMosix)
	amFull := runScheme(t, full, AMPoM)
	rSmall := amSmall.Total.Seconds() / omSmall.Total.Seconds()
	rFull := amFull.Total.Seconds() / omFull.Total.Seconds()
	if rFull <= rSmall {
		t.Fatalf("ratio must grow with working set: %.2f then %.2f", rSmall, rFull)
	}
}

func TestBroadbandDegradesNoPrefetchMost(t *testing.T) {
	w := smallWorkload(t, hpcc.RandomAccess, 32)
	bb := netmodel.Broadband()
	om := MustRun(RunConfig{Workload: w, Scheme: OpenMosix, Network: bb, Seed: 5})
	np := MustRun(RunConfig{Workload: w, Scheme: NoPrefetch, Network: bb, Seed: 5})
	am := MustRun(RunConfig{Workload: w, Scheme: AMPoM, Network: bb, Seed: 5})
	if !(om.Total < am.Total && am.Total < np.Total) {
		t.Fatalf("6Mb/s ordering wrong: om=%v am=%v np=%v (Figure 9)", om.Total, am.Total, np.Total)
	}
}

func TestAnalysisOverheadSmall(t *testing.T) {
	// Figure 11: AMPoM's analysis consumes < 0.6 % of execution time.
	for _, k := range hpcc.Kernels() {
		w := smallWorkload(t, k, 16)
		am := runScheme(t, w, AMPoM)
		if am.OverheadPct > 0.6 {
			t.Errorf("%v: overhead %.3f%%, want < 0.6%% (Figure 11)", k, am.OverheadPct)
		}
		if am.OverheadPct <= 0 {
			t.Errorf("%v: overhead not accounted", k)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w := smallWorkload(t, hpcc.FFT, 32)
	a := runScheme(t, w, AMPoM)
	b := runScheme(t, w, AMPoM)
	if a.Total != b.Total || a.HardFaults != b.HardFaults || a.PrefetchPages != b.PrefetchPages {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSeedChangesRandomAccessRun(t *testing.T) {
	e := hpcc.Scaled(hpcc.Largest(hpcc.RandomAccess), 32)
	w1, _ := hpcc.Build(e, 1)
	w2, _ := hpcc.Build(e, 2)
	a := runScheme(t, w1, AMPoM)
	b := runScheme(t, w2, AMPoM)
	if a.HardFaults == b.HardFaults && a.Total == b.Total {
		t.Fatal("different workload seeds produced identical runs")
	}
}

func TestResultAccounting(t *testing.T) {
	w := smallWorkload(t, hpcc.STREAM, 32)
	r := runScheme(t, w, AMPoM)
	if r.Faults != r.HardFaults+r.WaitFaults+r.SoftFaults {
		t.Fatalf("fault census inconsistent: %+v", r)
	}
	if r.Total != r.Init+r.Freeze+r.Exec {
		t.Fatalf("phase sum: total %v != %v+%v+%v", r.Total, r.Init, r.Freeze, r.Exec)
	}
	if r.PagesArrived != r.DemandPages+r.PrefetchPages {
		t.Fatalf("page conservation: arrived %d != demand %d + prefetch %d",
			r.PagesArrived, r.DemandPages, r.PrefetchPages)
	}
	// Every fetched page crosses the wire exactly once.
	if r.PagesArrived < w.WorkingSetPages*95/100 {
		t.Fatalf("arrived %d pages, want ≈ working set %d", r.PagesArrived, w.WorkingSetPages)
	}
	if r.Events == 0 {
		t.Fatal("event count missing")
	}
}

func TestBackgroundLoadSlowsRun(t *testing.T) {
	w := smallWorkload(t, hpcc.STREAM, 32)
	clean := MustRun(RunConfig{Workload: w, Scheme: AMPoM, Seed: 5})
	loaded := MustRun(RunConfig{Workload: w, Scheme: AMPoM, Seed: 5, BackgroundLoad: 0.5})
	if loaded.Total <= clean.Total {
		t.Fatalf("50%% background load did not slow the run: %v vs %v", loaded.Total, clean.Total)
	}
}

func TestFaultPreventionHelper(t *testing.T) {
	r := &Result{HardFaults: 20}
	if got := r.FaultPrevention(100); got != 0.8 {
		t.Fatalf("prevention = %v", got)
	}
	if got := r.FaultPrevention(0); got != 0 {
		t.Fatalf("prevention with zero baseline = %v", got)
	}
	r.HardFaults = 200
	if got := r.FaultPrevention(100); got != 0 {
		t.Fatalf("negative prevention not clamped: %v", got)
	}
}
