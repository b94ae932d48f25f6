package paging

import (
	"testing"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// fuzzPages is the fuzzed address space's size: small, so request sets
// overlap often.
const fuzzPages = 64

// FuzzPagingProtocol drives the pager and the deputy with random request
// sequences and checks the protocol's conservation laws once the engine
// has drained, among them the two table invariants: no page the migrant
// holds is still stored at the origin, and the pages still stored, served
// and taken out as stale add up to fuzzPages. gate is the instant, in units of 10 µs, until which the
// deputy parks requests (0: never gated); it is released at that instant,
// as the file server is when its flush lands. ops is read four bytes at a
// time: a delay before the operation in units of 20 µs, its kind, and two
// operands a and b:
//
//   - kind 0, a fault on page a: a demand request for a with the prefetch
//     pages a+s, a+2s, … (b&15 of them, stride s = (b>>4)%3+1) when a is
//     remote; only a wait when a is already in flight;
//   - kind 1, a prefetch-only request for pages a … a+(b&31);
//   - kind 2, page a leaves the origin's stored set behind the pager's
//     back, so a later request for it is stale and the deputy must skip it;
//   - kind 3, the process installs every arrived page.
//
// Pages wrap modulo fuzzPages, so sets overlap each other and pages that
// have already arrived.
func FuzzPagingProtocol(f *testing.F) {
	f.Add(uint16(0), []byte{0, 0, 10, 0x18})
	f.Add(uint16(0), []byte{0, 1, 20, 40, 0, 0, 21, 0x05, 0, 0, 30, 0x2f})
	f.Add(uint16(50), []byte{0, 1, 0, 63, 1, 0, 5, 0x1f, 200, 3, 0, 0, 10, 0, 40, 0x0f})
	f.Add(uint16(0), []byte{0, 2, 8, 0, 0, 1, 8, 3, 0, 0, 9, 0, 5, 0, 8, 0})
	f.Add(uint16(7), []byte{0, 2, 3, 0, 0, 0, 3, 0x12, 1, 0, 4, 0x34, 250, 3, 0, 0, 0, 1, 60, 10})
	f.Add(uint16(1), []byte{0, 1, 0, 10, 0, 0, 2, 0x08, 0, 0, 50, 0x01})
	f.Fuzz(func(t *testing.T, gate uint16, ops []byte) {
		r := newRig(t, fuzzPages)
		got := tapReplies(t, r)

		gateAt := simtime.Time(int64(gate) * int64(10*simtime.Microsecond))
		if gate > 0 {
			r.deputy.SetAvailableAfter(gateAt)
			r.eng.At(gateAt, func() { r.deputy.SetAvailableAfter(r.eng.Now()) })
		}

		var (
			stale        [fuzzPages]bool // moved at the origin behind the pager's back
			staleRemoved int64           // pages taken out of the stored set that way
			requested    [fuzzPages]bool // sent in a request
			waiting      = NoDemand
			zone         []memory.PageNum
		)
		page := func(b byte) memory.PageNum { return memory.PageNum(int(b) % fuzzPages) }
		resume := func() { waiting = NoDemand }
		// request sends demand and zone, checking Request's count of
		// prefetch pages against the states it changed.
		request := func(demand memory.PageNum) {
			var before [fuzzPages]memory.PageState
			for p := range before {
				before[p] = r.as.State(memory.PageNum(p))
			}
			n := r.pager.Request(demand, zone)
			moved := 0
			for p := range before {
				if before[p] == memory.StateRemote && r.as.State(memory.PageNum(p)) == memory.StateInFlight {
					requested[p] = true
					if memory.PageNum(p) != demand {
						moved++
					}
				}
			}
			if n != moved {
				t.Fatalf("Request reported %d prefetch pages, %d went in flight", n, moved)
			}
		}

		at := simtime.Time(0)
		for i := 0; i+4 <= len(ops); i += 4 {
			kind, a, b := ops[i+1]%4, ops[i+2], ops[i+3]
			at = at.Add(simtime.Duration(ops[i]) * 20 * simtime.Microsecond)
			r.eng.At(at, func() {
				switch kind {
				case 0:
					p := page(a)
					zone = zone[:0]
					stride := int(b>>4)%3 + 1
					for k := 1; k <= int(b&15); k++ {
						zone = append(zone, page(byte((int(a)+k*stride)%fuzzPages)))
					}
					switch r.as.State(p) {
					case memory.StateRemote:
						request(p)
					case memory.StateInFlight:
					default:
						return
					}
					if waiting == NoDemand {
						waiting = p
						r.pager.Wait(p, resume)
					}
				case 1:
					zone = zone[:0]
					for k := 0; k <= int(b&31); k++ {
						zone = append(zone, page(byte((int(a)+k)%fuzzPages)))
					}
					request(NoDemand)
				case 2:
					p := page(a)
					if r.as.State(p) == memory.StateRemote && r.deputy.stored.Remove(p) {
						stale[p] = true
						staleRemoved++
					}
				case 3:
					r.pager.InstallArrived()
				}
			})
		}
		r.eng.RunAll()

		st, dst := r.pager.Stats, r.deputy.Stats
		if dst.DemandServed+dst.PrefetchServed != st.PagesArrived {
			t.Fatalf("deputy served %d+%d pages, %d arrived", dst.DemandServed, dst.PrefetchServed, st.PagesArrived)
		}
		if want := st.PagesArrived * (memory.PageSize + ReplyOverhead); st.BytesReceived != want {
			t.Fatalf("received %d bytes for %d pages, want %d", st.BytesReceived, st.PagesArrived, want)
		}
		r.checkOneCopy(t)
		r.checkConservation(t, staleRemoved)
		if int64(len(*got)) != st.PagesArrived || r.deputy.replies.n != 0 {
			t.Fatalf("%d replies delivered, %d pages arrived, %d left in the reply FIFO", len(*got), st.PagesArrived, r.deputy.replies.n)
		}
		var served [fuzzPages]int
		for _, a := range *got {
			served[a.page]++
			if served[a.page] > 1 {
				t.Fatalf("page %d served twice", a.page)
			}
			if !requested[a.page] || stale[a.page] {
				t.Fatalf("page %d served but never requested from the origin's copy", a.page)
			}
		}
		for p := memory.PageNum(0); p < fuzzPages; p++ {
			inFlight := r.as.State(p) == memory.StateInFlight
			if skipped := requested[p] && stale[p]; inFlight != skipped {
				t.Fatalf("page %d in flight after the drain: %v; requested %v, stale %v", p, inFlight, requested[p], stale[p])
			}
			if requested[p] && !stale[p] && served[p] != 1 {
				t.Fatalf("requested page %d served %d times", p, served[p])
			}
		}
		if waiting != NoDemand && !stale[waiting] {
			t.Fatalf("process still waits on page %d, which arrived", waiting)
		}
	})
}
