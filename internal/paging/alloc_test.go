package paging

import (
	"testing"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// roundTrip drives one remote-paging round trip on a rig again and again:
// a demand request for page demand carrying prefetch pages, the executor's
// wait on the demand page, the run to quiescence and the install of every
// arrived page. Afterwards it hands the pages back to the origin, so the
// next trip fetches the same pages and the rig never runs out.
//
// The pages lie above 255 on purpose: Go boxes integers below 256 into an
// interface without allocating, so a per-page reply boxed into any would
// hide on low page numbers.
type roundTrip struct {
	r        *rig
	demand   memory.PageNum
	prefetch []memory.PageNum
	gated    bool // park the request behind the deputy's gate, then release it
	resumed  int
	resume   func()
}

func newRoundTrip(t testing.TB, gated bool) *roundTrip {
	t.Helper()
	rt := &roundTrip{r: newRig(t, 2048), demand: 1000, gated: gated}
	for p := memory.PageNum(1001); p <= 1008; p++ {
		rt.prefetch = append(rt.prefetch, p)
	}
	rt.resume = func() { rt.resumed++ }
	return rt
}

func (rt *roundTrip) run() {
	r := rt.r
	if rt.gated {
		r.deputy.SetAvailableAfter(r.eng.Now().Add(simtime.Second))
	}
	r.pager.Request(rt.demand, rt.prefetch)
	r.pager.Wait(rt.demand, rt.resume)
	r.eng.RunAll()
	if rt.gated {
		// The request is parked; opening the gate serves it.
		r.deputy.SetAvailableAfter(r.eng.Now())
		r.eng.RunAll()
	}
	r.pager.InstallArrived()
	rt.reset(rt.demand)
	for _, p := range rt.prefetch {
		rt.reset(p)
	}
}

// reset returns page p to the origin, as at migration time.
func (rt *roundTrip) reset(p memory.PageNum) {
	rt.r.deputy.stored.Add(p)
	rt.r.as.SetState(p, memory.StateRemote)
}

// TestPagingRoundTripAllocFree: once the request, service and reply pools
// and the engine's queue have grown, a round trip allocates nothing —
// neither served straight away nor parked behind the file-server gate.
func TestPagingRoundTripAllocFree(t *testing.T) {
	for _, gated := range []bool{false, true} {
		rt := newRoundTrip(t, gated)
		for i := 0; i < 10; i++ { // grow the pools and the event queue
			rt.run()
		}
		if n := testing.AllocsPerRun(100, rt.run); n != 0 {
			t.Errorf("gated=%v: a round trip allocates %v times", gated, n)
		}
		const trips = 111 // the warm-up, AllocsPerRun's own warm-up run and 100 measured
		st, dst := rt.r.pager.Stats, rt.r.deputy.Stats
		if rt.resumed != trips || st.PagesArrived != 9*trips || dst.DemandServed != trips || dst.PrefetchServed != 8*trips {
			t.Fatalf("gated=%v: resumed %d, arrived %d, deputy %+v; want %d trips of 9 pages",
				gated, rt.resumed, st.PagesArrived, dst, trips)
		}
	}
}

// BenchmarkPagingRoundTrip times one demand request with eight prefetch
// pages from request to install, served straight away.
func BenchmarkPagingRoundTrip(b *testing.B) {
	rt := newRoundTrip(b, false)
	for i := 0; i < 10; i++ { // grow the pools and the event queue
		rt.run()
	}
	b.ReportAllocs()
	for b.Loop() {
		rt.run()
	}
}
