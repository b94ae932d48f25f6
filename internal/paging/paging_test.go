package paging

import (
	"testing"

	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// rig is a two-node harness: a deputy at the origin and a pager at the
// destination, as after a lightweight migration of a process with n pages.
type rig struct {
	eng    *sim.Engine
	origin *cluster.Node
	dest   *cluster.Node
	link   *netmodel.Link
	as     *memory.AddressSpace
	tables *memory.TablePair
	deputy *Deputy
	pager  *Pager
}

func newRig(t *testing.T, pages int64) *rig {
	t.Helper()
	eng := sim.New()
	origin := cluster.NewNode(eng, "origin", 1)
	dest := cluster.NewNode(eng, "dest", 1)
	link := netmodel.NewLink(eng, netmodel.FastEthernet(), origin.NIC, dest.NIC)
	layout := memory.MustLayout(1, pages-2, 1)
	as := memory.NewAddressSpace(layout)
	as.EvictAllToRemote()
	tables := memory.NewTablePair(pages)
	return &rig{
		eng: eng, origin: origin, dest: dest, link: link, as: as, tables: tables,
		deputy: NewDeputy(origin, link, tables),
		pager:  NewPager(dest, link, as),
	}
}

func TestWireSizes(t *testing.T) {
	req := PageRequest{Demand: 5, Prefetch: []memory.PageNum{6, 7}}
	if req.WireSize() != ReqHeaderBytes+3*ReqPerPageBytes {
		t.Fatalf("request size = %d", req.WireSize())
	}
	req = PageRequest{Demand: NoDemand, Prefetch: []memory.PageNum{6}}
	if req.WireSize() != ReqHeaderBytes+ReqPerPageBytes {
		t.Fatalf("prefetch-only size = %d", req.WireSize())
	}
	rep := PageReply{Page: 5}
	if rep.WireSize() != memory.PageSize+ReplyOverhead {
		t.Fatalf("reply size = %d", rep.WireSize())
	}
}

func TestDemandFetch(t *testing.T) {
	r := newRig(t, 64)
	resumed := simtime.Time(-1)
	r.pager.Request(7, nil)
	r.pager.Wait(7, func() { resumed = r.eng.Now() })
	r.eng.RunAll()

	if resumed < 0 {
		t.Fatal("waiter never resumed")
	}
	if r.as.State(7) != memory.StateResident {
		t.Fatalf("page state = %v after demand fetch", r.as.State(7))
	}
	// Ownership moved (paper §2.2): origin copy deleted.
	if r.tables.HPT.Loc(7) != memory.LocUnmapped || r.tables.MPT.Loc(7) != memory.LocMigrant {
		t.Fatal("tables not updated on transfer")
	}
	if err := r.tables.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if r.pager.Stats.DemandRequested != 1 || r.deputy.Stats.DemandServed != 1 {
		t.Fatalf("stats: %+v / %+v", r.pager.Stats, r.deputy.Stats)
	}
}

func TestDemandServedBeforePrefetch(t *testing.T) {
	r := newRig(t, 64)
	var resumedAt simtime.Time
	r.pager.Request(10, []memory.PageNum{20, 21, 22, 23, 24, 25, 26, 27, 28, 29})
	r.pager.Wait(10, func() { resumedAt = r.eng.Now() })
	r.eng.RunAll()

	// The demand page is first on the wire: the stall must be roughly one
	// RTT plus ONE page serialisation, not eleven.
	onePage := netmodel.FastEthernet().TransferTime(memory.PageSize + ReplyOverhead)
	budget := simtime.Duration(float64(onePage)*2.5) + 2*netmodel.FastEthernet().LatencyOneWay + simtime.Millisecond
	if resumedAt.Sub(0) > budget {
		t.Fatalf("resumed after %v, want ≈ RTT + 1 page (%v)", resumedAt, budget)
	}
	if r.deputy.Stats.PrefetchServed != 10 {
		t.Fatalf("prefetch served = %d", r.deputy.Stats.PrefetchServed)
	}
}

func TestPrefetchFiltering(t *testing.T) {
	r := newRig(t, 64)
	// Page 30 resident, 31 in flight: neither may be re-requested.
	r.as.SetState(30, memory.StateResident)
	r.as.SetState(31, memory.StateInFlight)
	n := r.pager.Request(NoDemand, []memory.PageNum{30, 31, 32})
	if n != 1 {
		t.Fatalf("requested %d prefetch pages, want 1 (filtering)", n)
	}
	if r.as.State(32) != memory.StateInFlight {
		t.Fatal("requested page not marked in flight")
	}
}

func TestEmptyRequestNotSent(t *testing.T) {
	r := newRig(t, 64)
	r.as.SetState(5, memory.StateResident)
	if n := r.pager.Request(NoDemand, []memory.PageNum{5}); n != 0 {
		t.Fatalf("n = %d", n)
	}
	r.eng.RunAll()
	if r.pager.Stats.RequestsSent != 0 || r.deputy.Stats.Requests != 0 {
		t.Fatal("empty request went on the wire")
	}
}

func TestDemandExcludedFromPrefetchList(t *testing.T) {
	r := newRig(t, 64)
	n := r.pager.Request(9, []memory.PageNum{9, 10})
	if n != 1 {
		t.Fatalf("prefetch count = %d, want 1 (demand page excluded)", n)
	}
	r.pager.Wait(9, func() {})
	r.eng.RunAll()
	if r.deputy.Stats.DemandServed != 1 || r.deputy.Stats.PrefetchServed != 1 {
		t.Fatalf("deputy stats = %+v", r.deputy.Stats)
	}
}

func TestInstallArrived(t *testing.T) {
	r := newRig(t, 64)
	r.pager.Request(NoDemand, []memory.PageNum{12, 13, 14})
	r.eng.RunAll()
	for _, p := range []memory.PageNum{12, 13, 14} {
		if r.as.State(p) != memory.StateArrived {
			t.Fatalf("page %d state = %v, want arrived (installed only at next fault)", p, r.as.State(p))
		}
	}
	cost := r.pager.InstallArrived()
	if cost <= 0 {
		t.Fatal("install cost must be positive")
	}
	for _, p := range []memory.PageNum{12, 13, 14} {
		if r.as.State(p) != memory.StateResident {
			t.Fatalf("page %d not installed", p)
		}
	}
	if r.pager.InstallArrived() != 0 {
		t.Fatal("second install should be free")
	}
	if r.pager.Stats.PagesInstalled != 3 {
		t.Fatalf("installed = %d", r.pager.Stats.PagesInstalled)
	}
}

func TestStallTimeAccounting(t *testing.T) {
	r := newRig(t, 64)
	r.pager.Request(7, nil)
	r.pager.Wait(7, func() {})
	r.eng.RunAll()
	if r.pager.Stats.StallTime <= 0 {
		t.Fatal("stall time not recorded")
	}
}

func TestDoubleWaitPanics(t *testing.T) {
	r := newRig(t, 64)
	r.pager.Request(7, nil)
	r.pager.Wait(7, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("second waiter accepted")
		}
	}()
	r.pager.Wait(7, func() {})
}

func TestWaitOnNonInFlightPanics(t *testing.T) {
	r := newRig(t, 64)
	defer func() {
		if recover() == nil {
			t.Fatal("wait on remote page accepted")
		}
	}()
	r.pager.Wait(7, func() {})
}

func TestDemandForLocalPagePanics(t *testing.T) {
	r := newRig(t, 64)
	r.as.SetState(7, memory.StateResident)
	defer func() {
		if recover() == nil {
			t.Fatal("demand for resident page accepted")
		}
	}()
	r.pager.Request(7, nil)
}

func TestDeputySkipsAlreadyTransferred(t *testing.T) {
	r := newRig(t, 64)
	// Simulate a stale request: page 8 already migrated.
	if err := r.tables.TransferToMigrant(8); err != nil {
		t.Fatal(err)
	}
	r.as.SetState(8, memory.StateRemote) // migrant side believes it's remote
	r.pager.Request(NoDemand, []memory.PageNum{8})
	// The reply never comes; the pager would wait forever on a demand, but
	// a prefetch just stays in flight. The deputy must count the skip.
	r.eng.RunAll()
	if r.deputy.Stats.Skipped != 1 {
		t.Fatalf("skipped = %d", r.deputy.Stats.Skipped)
	}
	if r.pager.Stats.PagesArrived != 0 {
		t.Fatal("phantom page arrived")
	}
}

// TestBulkTransferConservation: requesting every page in batches moves each
// page exactly once and preserves table consistency throughout.
func TestBulkTransferConservation(t *testing.T) {
	const pages = 256
	r := newRig(t, pages)
	var batch []memory.PageNum
	for p := memory.PageNum(0); p < pages; p++ {
		batch = append(batch, p)
		if len(batch) == 32 {
			r.pager.Request(NoDemand, batch)
			batch = nil
		}
	}
	r.eng.RunAll()
	if r.pager.Stats.PagesArrived != pages {
		t.Fatalf("arrived = %d, want %d", r.pager.Stats.PagesArrived, pages)
	}
	if got := r.deputy.Stats.PrefetchServed; got != pages {
		t.Fatalf("served = %d", got)
	}
	r.pager.InstallArrived()
	if r.as.CountInState(memory.StateResident) != pages {
		t.Fatalf("resident = %d", r.as.CountInState(memory.StateResident))
	}
	if err := r.tables.CheckConsistent(); err != nil {
		t.Fatal(err)
	}
	if r.tables.HPT.Mapped() != 0 {
		t.Fatalf("origin still stores %d pages", r.tables.HPT.Mapped())
	}
}

func TestOutstanding(t *testing.T) {
	r := newRig(t, 64)
	r.pager.Request(NoDemand, []memory.PageNum{1, 2, 3})
	inFlight := func() int64 { return r.pager.AddressSpace().CountInState(memory.StateInFlight) }
	if inFlight() != 3 {
		t.Fatalf("outstanding = %d", inFlight())
	}
	r.eng.RunAll()
	if inFlight() != 0 {
		t.Fatalf("outstanding after drain = %d", inFlight())
	}
}

func TestDeputyGating(t *testing.T) {
	r := newRig(t, 64)
	// Gate the deputy far in the future: a request parks instead of being
	// served (the FFA file server before its flush lands).
	r.deputy.SetAvailableAfter(simtime.Time(10 * simtime.Second))
	r.pager.Request(NoDemand, []memory.PageNum{5, 6})
	r.eng.Run(simtime.Time(simtime.Second))
	if r.pager.Stats.PagesArrived != 0 {
		t.Fatal("gated deputy served pages early")
	}
	// Releasing the gate at its instant drains the parked request.
	r.eng.At(simtime.Time(10*simtime.Second), func() {
		r.deputy.SetAvailableAfter(r.eng.Now())
	})
	r.eng.RunAll()
	if r.pager.Stats.PagesArrived != 2 {
		t.Fatalf("parked request not drained: arrived = %d", r.pager.Stats.PagesArrived)
	}
}

func TestDeputyGateInPastIsTransparent(t *testing.T) {
	r := newRig(t, 64)
	r.deputy.SetAvailableAfter(0) // already available
	r.pager.Request(NoDemand, []memory.PageNum{5})
	r.eng.RunAll()
	if r.pager.Stats.PagesArrived != 1 {
		t.Fatal("past gate blocked service")
	}
}
