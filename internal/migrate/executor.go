package migrate

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/paging"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// executor drives a migrated process's reference stream on the destination
// node as an event-driven state machine: it consumes references, advancing
// the virtual clock by their compute time, and enters the fault path
// whenever it touches a page that is not installed. Consecutive resident
// references are batched into a single scheduled compute interval, so the
// event count is proportional to faults, not references.
//
// At most one fault is in progress at a time — the process cannot fault
// again until the current fault resumes it — so the fault's page, demand
// and zone live on the executor, and every event it schedules runs one of
// four callbacks built once in start.
type executor struct {
	node *cluster.Node
	src  trace.Source
	as   *memory.AddressSpace

	// Remote paging machinery; nil for openMosix (never faults).
	pager *paging.Pager
	// AMPoM; nil for NoPrefetch.
	pre *core.Prefetcher
	est func() core.Estimates

	// Utilisation sampling (the C array of §3.1).
	busy           simtime.Duration
	lastSampleAt   simtime.Time
	lastSampleBusy simtime.Duration
	util           float64

	// The run's result, whose fault census and analysis time the fault
	// path writes as faults happen, and the analysis sums behind its
	// MeanScore and MeanN.
	res      *Result
	analyses int64
	scoreSum float64
	nSum     float64

	// The fault in progress: the faulting page, the page demanded from the
	// origin (paging.NoDemand if none), and the dependent zone, which is
	// the Prefetcher's reused buffer and is consumed by faultSend before
	// the next Analyze.
	faulting bool
	page     memory.PageNum
	demand   memory.PageNum
	zone     []memory.PageNum

	// The scheduled callbacks, built once by start: fault, faultSend,
	// step and the completion.
	faultFn, faultSendFn, stepFn, finishFn func()
}

// start begins execution at the current instant; done fires at completion.
func (e *executor) start(done func(endAt simtime.Time)) {
	e.faultFn = e.fault
	e.faultSendFn = e.faultSend
	e.stepFn = e.step
	e.finishFn = func() { done(e.node.Eng.Now()) }
	e.util = 1
	e.lastSampleAt = e.node.Eng.Now()
	e.step()
}

// step consumes references until the stream ends or a fault interrupts it,
// accumulating the compute time of the batch into one scheduled event.
func (e *executor) step() {
	var pending simtime.Duration
	for {
		ref, ok := e.src.Next()
		if !ok {
			e.busy += pending
			e.node.Eng.Schedule(pending, e.finishFn)
			return
		}
		pending += e.node.Scale(ref.Compute)
		if e.as.State(ref.Page) == memory.StateResident {
			continue
		}
		if e.faulting {
			panic(fmt.Sprintf("migrate: fault on page %d scheduled while the fault on page %d is pending", ref.Page, e.page))
		}
		e.faulting = true
		e.page = ref.Page
		e.busy += pending
		e.node.Eng.Schedule(pending, e.faultFn)
		return
	}
}

// utilTau is the smoothing horizon of the utilisation estimate. The
// paper's C_i comes from oM_infoD's coarse node-level sampling, not from
// raw per-fault intervals, so we exponentially smooth the instantaneous
// busy fraction over a daemon-like horizon.
const utilTau = 250 * simtime.Millisecond

// sampleUtil computes C_i: the smoothed fraction of wall time the process
// spends computing rather than stalling.
func (e *executor) sampleUtil() float64 {
	now := e.node.Eng.Now()
	elapsed := now.Sub(e.lastSampleAt)
	if elapsed <= 0 {
		return e.util
	}
	u := float64(e.busy-e.lastSampleBusy) / float64(elapsed)
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	e.lastSampleAt = now
	e.lastSampleBusy = e.busy
	// Exponential smoothing with a weight proportional to the observation
	// interval, approximating a fixed-rate daemon sampler.
	alpha := float64(elapsed) / float64(elapsed+utilTau)
	e.util = alpha*u + (1-alpha)*e.util
	return e.util
}

// fault is the page-fault handler for e.page: Algorithm 1 of the paper.
func (e *executor) fault() {
	page := e.page
	if e.pager == nil {
		panic(fmt.Sprintf("migrate: fault on page %d under a scheme with no remote paging", page))
	}
	e.res.Faults++

	// "if pages prefetched last time have arrived then copy these pages to
	// the migrant's address space" — install arrivals first.
	cost := e.pager.FaultBaseCost() + e.pager.InstallArrived()

	// State after installation decides the fault class.
	st := e.as.State(page)

	ci := e.sampleUtil()
	e.demand = paging.NoDemand
	if st == memory.StateRemote {
		e.demand = page
	}

	if e.pre != nil {
		// "record i in the lookback window; calculate the current spatial
		// locality score; calculate the number of pages in the dependent
		// zone; identify which pages are in the dependent zone."
		e.pre.RecordFault(page, e.node.Eng.Now(), ci)
		a := e.pre.Analyze(e.est())
		ac := e.node.Scale(core.AnalysisCost(e.pre.Config(), a))
		e.res.AnalysisTime += ac
		e.analyses++
		e.scoreSum += a.Score
		e.nSum += float64(a.N)
		cost += ac
		// a.Zone is the Prefetcher's reused buffer. faultSend consumes it
		// before the next Analyze: the process cannot fault again until
		// faultSend resumes it.
		e.zone = a.Zone
	}

	e.node.Eng.Schedule(cost, e.faultSendFn)
}

// faultSend finishes the fault after handler costs: it sends the batched
// request and either resumes immediately or blocks on the missing page.
func (e *executor) faultSend() {
	page, demand := e.page, e.demand
	// A page that arrived while the handler ran is not yet installed;
	// demand cannot have been requested by anyone else, so its state can
	// only still be Remote.
	nPref := e.pager.Request(demand, e.zone)
	e.faulting = false
	if e.pre != nil {
		e.pre.NotePrefetched(nPref)
	}

	switch e.as.State(page) {
	case memory.StateResident:
		// Installed by this fault's arrival sweep: a soft (minor) fault.
		e.res.SoftFaults++
		e.step()
	case memory.StateArrived:
		// Arrived while the handler ran; install and continue.
		e.res.SoftFaults++
		cost := e.pager.InstallArrived()
		e.node.Eng.Schedule(cost, e.stepFn)
	case memory.StateInFlight:
		if demand == page {
			e.res.HardFaults++
		} else {
			e.res.WaitFaults++
		}
		e.pager.Wait(page, e.stepFn)
	default:
		panic(fmt.Sprintf("migrate: page %d still remote after fault handling", page))
	}
}
