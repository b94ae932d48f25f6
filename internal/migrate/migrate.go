// Package migrate orchestrates whole migration experiments: it builds a
// two-node cluster (origin and destination joined by a modelled link),
// runs a workload's pre-migration phase, then runs the one pipeline every
// scheme shares: freeze, ship a payload, and page in whatever did not
// travel, with (for AMPoM) adaptive prefetching, collecting every
// statistic the evaluation figures report. Run decides everything a
// scheme changes in one switch; the FFA-with-file-server and precopy
// baselines are variants of the same pipeline.
//
// The paper's three evaluated schemes (Figure 2):
//
//   - OpenMosix: all dirty pages transferred during the freeze; no remote
//     page faults afterwards.
//   - NoPrefetch: the FFA variant of §5.1 — only the three currently
//     accessed pages (code, data, stack) move at freeze time; every other
//     page is demand-fetched from the origin, one fault at a time.
//   - AMPoM: the three pages plus the master page table move at freeze
//     time; afterwards Algorithm 1 runs at every fault and prefetches the
//     dependent zone.
package migrate

import (
	"fmt"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/hpcc"
	"ampom/internal/infod"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/paging"
	"ampom/internal/sim"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// Scheme selects the migration mechanism.
type Scheme uint8

// The schemes compared in the paper's evaluation, plus the two baselines
// its Figure 2 and related work describe.
const (
	// OpenMosix transfers every dirty page during the freeze (paper
	// Figure 2, top).
	OpenMosix Scheme = iota
	// NoPrefetch is the paper's FFA variant: three pages at freeze time,
	// then demand paging directly from the origin (§5.1).
	NoPrefetch
	// AMPoM is the paper's contribution: three pages plus the MPT at
	// freeze time, then adaptive prefetching (Figure 2, bottom).
	AMPoM
	// FFAFileServer is Roush & Campbell's original Freeze Free Algorithm
	// (Figure 2, middle): three pages at freeze time, the origin flushes
	// all dirty pages to a file server, and the migrant's faults are
	// served by the file server — gated until the flush lands.
	FFAFileServer
	// Precopy is the V-system baseline (related work §6): the address
	// space is pre-copied while the process keeps executing at the origin;
	// the freeze then retransmits only the pages dirtied during the
	// precopy. No remote faults afterwards.
	Precopy
)

// Schemes lists the paper's three evaluated schemes in its presentation
// order.
func Schemes() []Scheme { return []Scheme{AMPoM, OpenMosix, NoPrefetch} }

// AllSchemes additionally includes the FFA-with-file-server and precopy
// baselines used by the scheme ablation.
func AllSchemes() []Scheme {
	return []Scheme{AMPoM, OpenMosix, NoPrefetch, FFAFileServer, Precopy}
}

// String names the scheme as in the figures.
func (s Scheme) String() string {
	switch s {
	case OpenMosix:
		return "openMosix"
	case NoPrefetch:
		return "NoPrefetch"
	case AMPoM:
		return "AMPoM"
	case FFAFileServer:
		return "FFA-fileserver"
	case Precopy:
		return "Precopy"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// RunConfig describes one experiment run.
type RunConfig struct {
	// Workload is the kernel run to execute.
	Workload *hpcc.Workload
	// Scheme is the migration mechanism.
	Scheme Scheme
	// Network is the link profile (FastEthernet by default).
	Network netmodel.Profile
	// AMPoM configures the prefetcher (AMPoM scheme only); zero value means
	// paper defaults.
	AMPoM core.Config
	// Seed drives all stochastic components.
	Seed uint64
	// BackgroundLoad is the fraction of link bandwidth consumed by
	// competing traffic.
	BackgroundLoad float64
}

// Result carries everything the evaluation figures need from one run.
type Result struct {
	Workload string
	Kernel   hpcc.Kernel
	MemoryMB int64
	Scheme   Scheme
	Network  string

	// Phase timings.
	Init    simtime.Duration // pre-migration allocate+initialise phase
	Precopy simtime.Duration // pre-copy rounds while executing (Precopy only)
	Freeze  simtime.Duration // migration freeze time (Figure 5)
	Exec    simtime.Duration // resume → workload completion
	Total   simtime.Duration // Init + Precopy + Freeze + Exec (Figure 6)

	// Fault census.
	Faults     int64 // all faults (hard + wait + soft)
	HardFaults int64 // demand requests to the origin (Figure 7)
	WaitFaults int64 // stalled on an in-flight prefetch, no request
	SoftFaults int64 // satisfied by an arrived-but-uninstalled page

	// Request/transfer census.
	RequestsSent  int64
	PrefetchOnly  int64
	DemandPages   int64
	PrefetchPages int64
	PagesArrived  int64
	BytesToDest   int64 // bytes received by the migrant (freeze + paging)

	// Derived figure metrics.
	PrefetchPerRequest float64 // Figure 8
	OverheadPct        float64 // Figure 11: analysis time / exec time ×100

	// Diagnostics.
	StallTime    simtime.Duration
	AnalysisTime simtime.Duration
	MeanScore    float64
	MeanN        float64
	FinalRTTEst  simtime.Duration
	Events       uint64
}

// FaultPrevention returns the fraction of first-touch fetches that did not
// need a demand request, relative to a NoPrefetch baseline that faults once
// per fetched page (the §5.4 "prevented page fault requests" metric).
func (r *Result) FaultPrevention(baselineFaults int64) float64 {
	if baselineFaults <= 0 {
		return 0
	}
	p := 1 - float64(r.HardFaults)/float64(baselineFaults)
	if p < 0 {
		return 0
	}
	return p
}

// freezeDone is the control payload completing a freeze-time bulk transfer.
type freezeDone struct{ fn func() }

// Run executes one experiment and returns its result.
func Run(cfg RunConfig) (*Result, error) {
	w := cfg.Workload
	if w == nil {
		return nil, fmt.Errorf("migrate: nil workload")
	}
	net := cfg.Network
	if net.BandwidthBps == 0 {
		net = netmodel.FastEthernet()
	}

	eng := sim.New()
	origin := cluster.NewNode(eng, "origin", 1.0)
	dest := cluster.NewNode(eng, "dest", 1.0)
	link := netmodel.NewLink(eng, net, origin.NIC, dest.NIC)
	link.SetBackgroundLoad(cfg.BackgroundLoad)

	// Control handler for freeze-completion payloads, on both nodes.
	ctl := func(p any) bool {
		if f, ok := p.(freezeDone); ok {
			f.fn()
			return true
		}
		return false
	}
	origin.Handle(ctl)
	dest.Handle(ctl)

	as := memory.NewAddressSpace(w.Layout)
	src := w.Source.Open()

	// The kernel allocates and initialises its memory at the origin; the
	// paper triggers migration right after. Initialisation dirties the
	// whole address space, so every page is dirty at migration time.
	res := &Result{
		Workload: w.Name,
		Kernel:   w.Entry.Kernel,
		MemoryMB: w.Entry.MemoryMB,
		Scheme:   cfg.Scheme,
		Network:  net.Name,
		Init:     w.InitCompute,
	}

	// --- Everything a scheme changes ------------------------------------
	// Every scheme is one pipeline (paper Figure 2): freeze, ship a
	// payload, then page in whatever did not travel. The schemes differ in
	// the payload, in the MPT entries the destination installs before the
	// migrant resumes, in the node serving the remaining pages (none, the
	// origin's deputy, or a file server gated on the origin's flush), and
	// in whether AMPoM's prefetcher runs.
	threePages := int64(3*cluster.PageFrameBytes + cluster.RegisterBytes)
	var (
		payload  int64          // bytes shipped during the freeze
		mpt      int64          // MPT entries shipped and installed
		server   *cluster.Node  // serves the pages that did not travel; nil if none
		pageLink *netmodel.Link // migrant <-> server
		flush    *netmodel.Link // origin -> server flush gating the server; nil if ungated
		prefetch bool           // AMPoM's prefetcher and its paired daemons run
	)
	switch cfg.Scheme {
	case OpenMosix:
		// Every (dirty) page moves in one bulk stream. openMosix still
		// leaves a deputy for syscalls, but it serves no pages.
		payload = as.Pages()*cluster.PageFrameBytes + cluster.RegisterBytes
	case Precopy:
		// The rounds execute the front of the stream at the origin; the
		// freeze ships the residue they leave and the destination
		// continues with the rest, fully resident.
		ws := &windowedStream{src: src, node: origin}
		payload = ws.precopy(net, w.Layout.Pages(), res)
	case NoPrefetch:
		// §5.1's FFA variant: every other page is demand-fetched from the
		// origin, one fault at a time.
		payload, server, pageLink = threePages, origin, link
	case AMPoM:
		mpt = w.Layout.Pages()
		payload, server, pageLink, prefetch = threePages+mpt*memory.PTEntrySize, origin, link, true
	case FFAFileServer:
		// The origin flushes every dirty page to a file server, which
		// serves the migrant's faults once the flush has landed.
		server = cluster.NewNode(eng, "fileserver", 1.0)
		server.Handle(ctl)
		flush = netmodel.NewLink(eng, net, origin.NIC, server.NIC)
		pageLink = netmodel.NewLink(eng, net, dest.NIC, server.NIC)
		pageLink.SetBackgroundLoad(cfg.BackgroundLoad)
		payload = threePages
	default:
		return nil, fmt.Errorf("migrate: unknown scheme %v", cfg.Scheme)
	}
	res.BytesToDest += payload

	exec := &executor{node: dest, src: src, as: as, res: res}
	var (
		destDaemon *infod.Daemon
		origDaemon *infod.Daemon
		resumeAt   simtime.Time
		finished   bool
	)
	migrationStart := simtime.Time(res.Init + res.Precopy)

	// ship is every freeze-time bulk transfer: the fixed migration cost,
	// then bytes leave the origin on l and done runs where they land.
	ship := func(l *netmodel.Link, bytes int64, done func()) {
		eng.Schedule(cluster.MigrationBase, func() {
			l.Send(origin.NIC, netmodel.Message{Size: bytes, Payload: freezeDone{done}})
		})
	}
	// resume starts the migrant executing at the destination node.
	resume := func() {
		resumeAt = eng.Now()
		res.Freeze = resumeAt.Sub(migrationStart)
		exec.start(func(end simtime.Time) {
			res.Exec = end.Sub(resumeAt)
			res.Total = simtime.Duration(end)
			finished = true
			if prefetch {
				destDaemon.Stop()
				origDaemon.Stop()
			}
		})
	}
	arrive := resume
	if server != nil {
		// A paging migrant resumes once the destination has installed the
		// MPT entries that travelled, if any.
		install := dest.Scale(cluster.MPTEntryCPU * simtime.Duration(mpt))
		arrive = func() { eng.Schedule(install, resume) }
	}
	eng.At(migrationStart, func() { ship(link, payload, arrive) })

	// --- Remote paging after resume ---------------------------------------
	var (
		pager  *paging.Pager
		deputy *paging.Deputy
		stored memory.PageSet // the pages server stores, each served once
	)
	if server != nil {
		stored = freezeInstall(as, w.Layout)
		deputy = paging.NewDeputy(server, pageLink, stored)
		pager = paging.NewPager(dest, pageLink, as)
		exec.pager = pager
	}
	if flush != nil {
		// The server serves nothing until the flush, which leaves the
		// origin in parallel with the freeze, has landed.
		deputy.SetAvailableAfter(simtime.Never)
		bytes := stored.Len() * cluster.PageFrameBytes
		eng.At(migrationStart, func() {
			ship(flush, bytes, func() { deputy.SetAvailableAfter(eng.Now()) })
		})
	}
	if prefetch {
		pre, err := core.New(cfg.AMPoM, w.Layout.Pages())
		if err != nil {
			return nil, err
		}
		destDaemon = infod.New(simtime.Second, dest, link, cfg.Seed^0xd41d)
		origDaemon = infod.New(simtime.Second, origin, link, cfg.Seed^0x8c1f)
		infod.Pair(destDaemon, origDaemon)
		dest.Handle(infod.Route)
		origin.Handle(infod.Route)
		destDaemon.Start()
		origDaemon.Start()
		exec.pre, exec.est = pre, destDaemon.Estimates
	}

	// --- Run to completion --------------------------------------------------
	eng.MaxEvents = 500_000_000
	eng.RunAll()
	if !finished {
		return nil, fmt.Errorf("migrate: %s/%s did not finish (t=%v, pending=%d)",
			w.Name, cfg.Scheme, eng.Now(), eng.Pending())
	}

	// --- Collect ------------------------------------------------------------
	if exec.analyses > 0 {
		res.MeanScore = exec.scoreSum / float64(exec.analyses)
		res.MeanN = exec.nSum / float64(exec.analyses)
	}
	if res.Exec > 0 {
		res.OverheadPct = 100 * float64(res.AnalysisTime) / float64(res.Exec)
	}
	if pager != nil {
		st := pager.Stats
		res.RequestsSent = st.RequestsSent
		res.PrefetchOnly = st.PrefetchOnly
		res.DemandPages = st.DemandRequested
		res.PrefetchPages = st.PrefetchRequested
		res.PagesArrived = st.PagesArrived
		res.BytesToDest += st.BytesReceived
		res.StallTime = st.StallTime
		if res.HardFaults > 0 {
			res.PrefetchPerRequest = float64(st.PrefetchRequested) / float64(res.HardFaults)
		}
		// Every page the deputy sent must have arrived at the migrant.
		if deputy.Stats.DemandServed+deputy.Stats.PrefetchServed != st.PagesArrived {
			return nil, fmt.Errorf("migrate: page conservation violated: deputy sent %d+%d, migrant got %d",
				deputy.Stats.DemandServed, deputy.Stats.PrefetchServed, st.PagesArrived)
		}
	}
	if prefetch {
		res.FinalRTTEst = destDaemon.RTT()
	}
	res.Events = eng.Processed
	return res, nil
}

// freezeInstall evicts the whole address space to the origin, then
// installs at the migrant the three "currently accessed" pages that travel
// with the freeze: the first pages of the code, heap and stack regions.
// It returns the pages the origin still stores, which the deputy serves:
// every page but those three.
func freezeInstall(as *memory.AddressSpace, layout memory.Layout) memory.PageSet {
	stored := memory.NewPageSet(layout.Pages())
	for p := memory.PageNum(0); p < memory.PageNum(layout.Pages()); p++ {
		stored.Add(p)
	}
	as.EvictAllToRemote()
	for _, p := range []memory.PageNum{
		layout.Region(memory.RegionCode).Start,
		layout.Region(memory.RegionHeap).Start,
		layout.Region(memory.RegionStack).Start,
	} {
		as.SetState(p, memory.StateResident)
		stored.Remove(p)
	}
	return stored
}

// windowedStream executes a reference stream in wall-clock windows (the
// pre-copy rounds): consume runs exactly `budget` of compute, splitting a
// reference that spans the window boundary.
type windowedStream struct {
	src     *trace.Cursor
	node    *cluster.Node
	pending trace.Ref // partially computed reference, Compute = remainder
	hasPend bool
	written memory.PageSet // pages written in the current window
}

// precopy runs the pre-copy rounds of a pages-page address space over
// net: each round retransmits the pages the previous one dirtied, until
// the rounds stop converging or three have run. It adds the rounds' time
// and bytes to res and returns the bytes the freeze must still ship. It
// leaves src at whatever has not executed yet, for the destination
// executor to continue with: first the reference split at the last window
// boundary, then the untouched rest. References are scaled to the origin
// node's CPU as they execute there; the destination executor re-scales, so
// the split reference goes back in reference-CPU time by inverting the
// scale.
func (ws *windowedStream) precopy(net netmodel.Profile, pages int64, res *Result) int64 {
	allBytes := pages*cluster.PageFrameBytes + cluster.RegisterBytes
	round := net.TransferTime(allBytes)
	ws.written = memory.NewPageSet(pages)
	res.BytesToDest += allBytes
	residue := int64(0)
	for i := 0; i < 3; i++ {
		res.Precopy += round
		dirtied, ended := ws.consume(round)
		residue = dirtied
		if ended || dirtied == 0 {
			break
		}
		bytes := dirtied * cluster.PageFrameBytes
		next := net.TransferTime(bytes)
		if i == 2 || next >= round {
			break // not converging; stop-and-copy the rest
		}
		res.BytesToDest += bytes
		round = next
	}
	if ws.hasPend {
		ref := ws.pending
		ref.Compute = simtime.Duration(float64(ref.Compute) * ws.node.CPUScale)
		ws.src.Push(ref)
	}
	return residue*cluster.PageFrameBytes + cluster.RegisterBytes
}

// consume runs budget worth of compute and returns the distinct pages
// written in the window (the dirty set the next pre-copy round must
// retransmit) and whether the stream ended inside the window.
func (ws *windowedStream) consume(budget simtime.Duration) (dirtied int64, ended bool) {
	clear(ws.written)
	var used simtime.Duration
	for used < budget {
		var ref trace.Ref
		if ws.hasPend {
			ref = ws.pending
			ws.hasPend = false
		} else {
			var ok bool
			ref, ok = ws.src.Next()
			if !ok {
				return dirtied, true
			}
			ref.Compute = ws.node.Scale(ref.Compute)
		}
		if used+ref.Compute > budget {
			// The reference spans the window boundary: bank the remainder
			// (its page touch happens when the compute completes, in a
			// later window).
			ref.Compute -= budget - used
			ws.pending = ref
			ws.hasPend = true
			return dirtied, false
		}
		used += ref.Compute
		if ref.Write && ws.written.Add(ref.Page) {
			dirtied++
		}
	}
	return dirtied, false
}
