package paging

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// The migrant-side fault-handling costs, calibrated for the paper's 2 GHz
// Pentium 4.
const (
	// faultBase is charged at every page fault (trap, handler entry).
	faultBase = 2 * simtime.Microsecond
	// installPerPage is charged per arrived page copied into the address
	// space (Algorithm 1's "copy these pages to the migrant's address
	// space").
	installPerPage = 1500 * simtime.Nanosecond
)

// PagerStats accounts the migrant-side paging activity. The evaluation
// figures read these directly:
//
//   - HardFaults is Figure 7's "number of page fault requests": faults on
//     pages that were neither local nor in flight, forcing a demand request
//     to the origin.
//   - PrefetchRequested/HardFaults is Figure 8's prefetched pages per page
//     fault (request).
type PagerStats struct {
	HardFaults int64 // demand request sent, full stall
	WaitFaults int64 // page already in flight, stalled without a request
	SoftFaults int64 // page had arrived, install only

	RequestsSent      int64 // PageRequest messages carrying ≥ 1 page
	PrefetchOnly      int64 // requests with no demand page
	PrefetchRequested int64 // pages requested as prefetch
	DemandRequested   int64 // pages requested on demand

	PagesArrived   int64
	PagesInstalled int64
	BytesReceived  int64

	StallTime simtime.Duration // time the process spent blocked on pages
}

// Pager is the migrant-side remote paging engine: it owns the residency
// state machine, sends batched requests, buffers arrivals, and wakes the
// executor when the page it stalled on arrives.
type Pager struct {
	node *cluster.Node
	link *netmodel.Link
	as   *memory.AddressSpace

	seq     uint64
	arrived []memory.PageNum // arrived but not yet installed

	// waiting executor state
	waitingOn    memory.PageNum
	waitingSince simtime.Time
	resume       func()

	Stats PagerStats
}

// NewPager installs a pager for the migrant's address space on node. It
// registers itself as a payload handler for PageReply messages.
func NewPager(node *cluster.Node, link *netmodel.Link, as *memory.AddressSpace) *Pager {
	p := &Pager{node: node, link: link, as: as, waitingOn: NoDemand}
	node.Handle(p.handle)
	return p
}

// AddressSpace returns the migrant's address space.
func (p *Pager) AddressSpace() *memory.AddressSpace { return p.as }

// FaultBaseCost returns the per-fault handler entry cost on this node.
func (p *Pager) FaultBaseCost() simtime.Duration { return p.node.Scale(faultBase) }

// InstallArrived copies every buffered arrived page into the address space
// and returns the CPU cost of doing so. Algorithm 1 performs this at the
// top of each fault.
func (p *Pager) InstallArrived() simtime.Duration {
	if len(p.arrived) == 0 {
		return 0
	}
	n := 0
	for _, page := range p.arrived {
		if p.as.State(page) == memory.StateArrived {
			p.as.SetState(page, memory.StateResident)
			n++
		}
	}
	p.arrived = p.arrived[:0]
	p.Stats.PagesInstalled += int64(n)
	return p.node.Scale(installPerPage * simtime.Duration(n))
}

// Request sends one batched paging request: demand is the faulted page
// (NoDemand when the fault was satisfied locally), prefetch the
// dependent-zone candidates. Pages that are not remote any more are
// filtered out here — "if j is not stored locally, record j in the remote
// paging request" (Algorithm 1). It returns how many prefetch pages were
// actually requested. The wanted pages are copied into the request, so
// prefetch may be a buffer the caller reuses, such as core.Analysis.Zone.
func (p *Pager) Request(demand memory.PageNum, prefetch []memory.PageNum) int {
	var wanted []memory.PageNum
	for _, page := range prefetch {
		if page == demand {
			continue
		}
		if p.as.State(page) == memory.StateRemote {
			wanted = append(wanted, page)
			p.as.SetState(page, memory.StateInFlight)
		}
	}
	if demand != NoDemand {
		if st := p.as.State(demand); st != memory.StateRemote {
			panic(fmt.Sprintf("paging: demand request for page %d in state %v", demand, st))
		}
		p.as.SetState(demand, memory.StateInFlight)
		p.Stats.DemandRequested++
	}
	if demand == NoDemand && len(wanted) == 0 {
		return 0 // nothing to ask for; no message
	}

	p.seq++
	req := PageRequest{Seq: p.seq, Demand: demand, Prefetch: wanted}
	p.Stats.RequestsSent++
	if demand == NoDemand {
		p.Stats.PrefetchOnly++
	}
	p.Stats.PrefetchRequested += int64(len(wanted))
	p.link.Send(p.node.NIC, netmodel.Message{Size: req.WireSize(), Payload: req})
	return len(wanted)
}

// Wait registers the executor as blocked on page, with resume invoked once
// the page has arrived and been installed. The page must be in flight
// (either from this fault's demand request or an earlier prefetch).
func (p *Pager) Wait(page memory.PageNum, resume func()) {
	if st := p.as.State(page); st != memory.StateInFlight {
		panic(fmt.Sprintf("paging: wait on page %d in state %v", page, st))
	}
	if p.resume != nil {
		panic("paging: second waiter registered")
	}
	p.waitingOn = page
	p.waitingSince = p.node.Eng.Now()
	p.resume = resume
}

// handle consumes PageReply messages.
func (p *Pager) handle(payload any) bool {
	rep, ok := payload.(PageReply)
	if !ok {
		return false
	}
	p.Stats.PagesArrived++
	p.Stats.BytesReceived += rep.WireSize()

	if st := p.as.State(rep.Page); st != memory.StateInFlight {
		panic(fmt.Sprintf("paging: arrival of page %d in state %v", rep.Page, st))
	}
	p.as.SetState(rep.Page, memory.StateArrived)
	p.arrived = append(p.arrived, rep.Page)

	if p.resume != nil && rep.Page == p.waitingOn {
		// The stalled fault completes: install everything buffered (we are
		// still inside the fault handler) and resume the process.
		p.Stats.StallTime += p.node.Eng.Now().Sub(p.waitingSince)
		resume := p.resume
		p.resume = nil
		p.waitingOn = NoDemand
		cost := p.InstallArrived()
		p.node.Eng.Schedule(cost, resume)
	}
	return true
}
