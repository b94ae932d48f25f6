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
	deputy *Deputy
	pager  *Pager
}

func newRig(t testing.TB, pages int64) *rig {
	t.Helper()
	return newRigOn(t, pages, netmodel.FastEthernet())
}

// newRigOn is newRig on a link of the given profile.
func newRigOn(t testing.TB, pages int64, prof netmodel.Profile) *rig {
	t.Helper()
	eng := sim.New()
	origin := cluster.NewNode(eng, "origin", 1)
	dest := cluster.NewNode(eng, "dest", 1)
	link := netmodel.NewLink(eng, prof, origin.NIC, dest.NIC)
	layout := memory.MustLayout(1, pages-2, 1)
	as := memory.NewAddressSpace(layout)
	as.EvictAllToRemote()
	stored := memory.NewPageSet(pages)
	for p := memory.PageNum(0); p < memory.PageNum(pages); p++ {
		stored.Add(p)
	}
	return &rig{
		eng: eng, origin: origin, dest: dest, link: link, as: as,
		deputy: NewDeputy(origin, link, stored),
		pager:  NewPager(dest, link, as),
	}
}

// inState counts the migrant's pages in state s.
func (r *rig) inState(s memory.PageState) int64 {
	n := int64(0)
	for p := memory.PageNum(0); p < memory.PageNum(r.as.Pages()); p++ {
		if r.as.State(p) == s {
			n++
		}
	}
	return n
}

// checkOneCopy fails if a page the migrant holds (arrived or resident) is
// still in the origin's stored set: serving a page must delete the origin
// copy.
func (r *rig) checkOneCopy(t testing.TB) {
	t.Helper()
	for p := memory.PageNum(0); p < memory.PageNum(r.as.Pages()); p++ {
		if st := r.as.State(p); (st == memory.StateArrived || st == memory.StateResident) && r.deputy.stored.Has(p) {
			t.Fatalf("page %d is %v at the migrant and still stored at the origin", p, st)
		}
	}
}

// checkConservation fails unless every page of the rig is either still
// stored at the origin, served by the deputy, or one of the stale pages
// taken out of the stored set behind the pager's back.
func (r *rig) checkConservation(t testing.TB, stale int64) {
	t.Helper()
	stored, served := r.deputy.stored.Len(), r.deputy.Stats.DemandServed+r.deputy.Stats.PrefetchServed
	if stored+served+stale != r.as.Pages() {
		t.Fatalf("%d pages stored + %d served + %d stale != %d pages", stored, served, stale, r.as.Pages())
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
	if r.deputy.stored.Has(7) {
		t.Fatal("origin still stores page 7 after serving it")
	}
	r.checkOneCopy(t)
	r.checkConservation(t, 0)
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
	if r.pager.Stats.RequestsSent != 0 || r.origin.NIC.Counters.RxBytes != 0 {
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
	if cost := r.pager.InstallArrived(); cost != r.dest.Scale(3*installPerPage) {
		t.Fatalf("install cost = %v, want three pages' worth", cost)
	}
	for _, p := range []memory.PageNum{12, 13, 14} {
		if r.as.State(p) != memory.StateResident {
			t.Fatalf("page %d not installed", p)
		}
	}
	if r.pager.InstallArrived() != 0 {
		t.Fatal("second install should be free")
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
	r.deputy.stored.Remove(8)
	// The migrant side still believes page 8 is remote.
	r.pager.Request(NoDemand, []memory.PageNum{8})
	// The reply never comes; the pager would wait forever on a demand, but
	// a prefetch just stays in flight. The deputy received the request but
	// must skip the page: it serves nothing.
	r.eng.RunAll()
	if r.origin.NIC.Counters.RxBytes == 0 {
		t.Fatal("request never reached the deputy")
	}
	if served := r.deputy.Stats.DemandServed + r.deputy.Stats.PrefetchServed; served != 0 {
		t.Fatalf("served = %d, want 0 (page already transferred)", served)
	}
	if r.pager.Stats.PagesArrived != 0 {
		t.Fatal("phantom page arrived")
	}
	r.checkConservation(t, 1)
}

// TestBulkTransferConservation: requesting every page in batches moves each
// page exactly once and leaves the origin storing nothing.
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
	if n := r.inState(memory.StateResident); n != pages {
		t.Fatalf("resident = %d", n)
	}
	if n := r.deputy.stored.Len(); n != 0 {
		t.Fatalf("origin still stores %d pages", n)
	}
	r.checkOneCopy(t)
	r.checkConservation(t, 0)
}

func TestOutstanding(t *testing.T) {
	r := newRig(t, 64)
	r.pager.Request(NoDemand, []memory.PageNum{1, 2, 3})
	inFlight := func() int64 { return r.inState(memory.StateInFlight) }
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

// tapReplies records, for every reply the pager receives, the page at the
// front of the deputy's reply FIFO and the delivery instant, hands the
// message on to the pager's handler, and fails unless that page has then
// left the in-flight state: a reply must land under its own page number.
func tapReplies(t testing.TB, r *rig) *[]arrival {
	var got []arrival
	r.dest.NIC.SetHandler(func(m netmodel.Message) {
		f, ok := m.Payload.(*replyFIFO)
		if !ok || f.n == 0 {
			if !r.pager.handle(m.Payload) {
				t.Fatalf("pager refused payload %T", m.Payload)
			}
			return
		}
		a := arrival{page: f.ring[f.head], at: r.eng.Now()}
		got = append(got, a)
		r.pager.handle(m.Payload)
		if st := r.as.State(a.page); st == memory.StateInFlight {
			t.Fatalf("reply for page %d delivered at %v, but the page is still in flight", a.page, a.at)
		}
	})
	return &got
}

// arrival is one reply as the pager received it.
type arrival struct {
	page memory.PageNum
	at   simtime.Time
}

// TestServiceOutOfOrder: the deputy serves a request its service cost after
// it arrives, and the cost grows with the page count, so a short demand
// request sent right behind a long prefetch request is served first. Every
// page must still arrive exactly once, under its own number, at the instant
// the link and service costs give. The instants are worked out by hand on a
// 1 byte/µs link with 100 µs latency:
//
//   - prefetch request, pages 100..199: 64+100·6 = 664 B, on the wire
//     0–664 µs, arrives at 764 µs, served at 764+25+100·2 = 989 µs;
//   - demand request, page 7: 64+6 = 70 B, on the wire 664–734 µs, arrives
//     at 834 µs, served at 834+25+2 = 861 µs — 128 µs before the prefetch;
//   - replies, 4096+64 = 4160 B each: page 7 leaves at 861 µs and arrives
//     at 861+4160+100 = 5121 µs; the k-th prefetch page (k = 0..99) queues
//     behind it and arrives at 5121+(k+1)·4160 µs;
//   - the stalled process resumes after installing page 7: 5121 µs + 1.5 µs.
func TestServiceOutOfOrder(t *testing.T) {
	r := newRigOn(t, 256, netmodel.Profile{Name: "1B/us", LatencyOneWay: 100 * simtime.Microsecond, BandwidthBps: 1e6})
	got := tapReplies(t, r)
	var prefetch []memory.PageNum
	for p := memory.PageNum(100); p < 200; p++ {
		prefetch = append(prefetch, p)
	}
	r.pager.Request(NoDemand, prefetch)
	r.pager.Request(7, nil)
	resumedAt := simtime.Time(-1)
	r.pager.Wait(7, func() { resumedAt = r.eng.Now() })
	r.eng.RunAll()

	us := func(n int64) simtime.Time { return simtime.Time(n * int64(simtime.Microsecond)) }
	want := []arrival{{page: 7, at: us(5121)}}
	for k, p := range prefetch {
		want = append(want, arrival{page: p, at: us(5121 + int64(k+1)*4160)})
	}
	if len(*got) != len(want) {
		t.Fatalf("%d replies arrived, want %d", len(*got), len(want))
	}
	for i, a := range *got {
		if a != want[i] {
			t.Fatalf("reply %d: page %d at %v, want page %d at %v", i, a.page, a.at, want[i].page, want[i].at)
		}
	}
	if wantResume := us(5121).Add(1500 * simtime.Nanosecond); resumedAt != wantResume {
		t.Fatalf("resumed at %v, want %v", resumedAt, wantResume)
	}
	if r.deputy.Stats.DemandServed != 1 || r.deputy.Stats.PrefetchServed != 100 || r.pager.Stats.PagesArrived != 101 {
		t.Fatalf("deputy %+v, arrived %d; want 1 demand + 100 prefetch", r.deputy.Stats, r.pager.Stats.PagesArrived)
	}
	r.checkOneCopy(t)
	r.checkConservation(t, 0)
}
