// Package migrate orchestrates whole migration experiments: it builds a
// two-node cluster (origin and destination joined by a modelled link),
// runs a workload's pre-migration phase, freezes and transfers the process
// under one of the paper's three schemes, then executes the post-migration
// reference stream with remote paging and (for AMPoM) adaptive
// prefetching, collecting every statistic the evaluation figures report.
//
// The three schemes (paper Figure 2):
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

	res := &Result{
		Workload: w.Name,
		Kernel:   w.Entry.Kernel,
		MemoryMB: w.Entry.MemoryMB,
		Scheme:   cfg.Scheme,
		Network:  net.Name,
	}

	// --- Pre-migration phase ----------------------------------------------
	// The kernel allocates and initialises its memory at the origin; the
	// paper triggers migration right after. Initialisation dirties the
	// whole address space, so every page is dirty at migration time.
	initTime := w.InitCompute
	res.Init = initTime

	var (
		exec       *executor
		destDaemon *infod.Daemon
		origDaemon *infod.Daemon
		pager      *paging.Pager
		deputy     *paging.Deputy
		resumeAt   simtime.Time
		execEndAt  simtime.Time
		finished   bool
	)

	finish := func(end simtime.Time) {
		execEndAt = end
		finished = true
		if destDaemon != nil {
			destDaemon.Stop()
		}
		if origDaemon != nil {
			origDaemon.Stop()
		}
	}

	// resume starts the migrant executing at the destination node.
	resume := func() {
		resumeAt = eng.Now()
		res.Freeze = resumeAt.Sub(simtime.Time(initTime + res.Precopy))
		exec.start(finish)
	}

	// --- Pre-copy phase (Precopy scheme only) -----------------------------
	// The V-system baseline copies the address space while the process
	// keeps executing at the origin; pages dirtied during a round are
	// retransmitted in the next, and the final residue moves during the
	// freeze. The rounds consume the front of the reference stream — those
	// references execute at the origin and are not replayed at the
	// destination.
	var precopyStream *windowedStream
	var precopyResidueBytes int64
	if cfg.Scheme == Precopy {
		precopyStream = &windowedStream{src: w.Source(), node: origin}
		allBytes := w.Layout.Pages()*cluster.PageFrameBytes + cluster.RegisterBytes
		round := net.TransferTime(allBytes)
		res.BytesToDest += allBytes
		residue := int64(0)
		for i := 0; i < 3; i++ {
			res.Precopy += round
			dirtied, ended := precopyStream.consume(round)
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
		precopyResidueBytes = residue*cluster.PageFrameBytes + cluster.RegisterBytes
		res.BytesToDest += precopyResidueBytes
	}

	// --- Freeze and transfer, per scheme ----------------------------------
	migrationStart := simtime.Time(initTime + res.Precopy)
	var fsFlushDone func(simtime.Time) // set by the FFA wiring below
	eng.At(migrationStart, func() {
		switch cfg.Scheme {
		case OpenMosix:
			// Ship every (dirty) page in one bulk stream; no deputy needed
			// for paging afterwards (openMosix still leaves a deputy for
			// syscalls, but it serves no pages).
			bytes := as.Pages()*cluster.PageFrameBytes + cluster.RegisterBytes
			res.BytesToDest += bytes
			eng.Schedule(cluster.MigrationBase, func() {
				link.Send(origin.NIC, netmodel.Message{Size: bytes, Payload: freezeDone{resume}})
			})

		case Precopy:
			// Only the residue dirtied during the last pre-copy round moves
			// during the freeze.
			eng.Schedule(cluster.MigrationBase, func() {
				link.Send(origin.NIC, netmodel.Message{Size: precopyResidueBytes, Payload: freezeDone{resume}})
			})

		case NoPrefetch, AMPoM, FFAFileServer:
			bytes := int64(3*cluster.PageFrameBytes + cluster.RegisterBytes)
			var mptInstall simtime.Duration
			if cfg.Scheme == AMPoM {
				bytes += w.Layout.Pages() * memory.PTEntrySize
				mptInstall = dest.Scale(cluster.MPTEntryCPU * simtime.Duration(w.Layout.Pages()))
			}
			res.BytesToDest += bytes
			eng.Schedule(cluster.MigrationBase, func() {
				link.Send(origin.NIC, netmodel.Message{Size: bytes, Payload: freezeDone{func() {
					eng.Schedule(mptInstall, resume)
				}}})
			})
		}
	})

	// --- Post-migration machinery ------------------------------------------
	switch cfg.Scheme {
	case OpenMosix:
		// All pages arrive during the freeze; the address space stays fully
		// resident and the executor never faults.
		exec = newExecutor(execConfig{
			node: dest, src: w.Source(), as: as,
		})

	case Precopy:
		// The precopy rounds already executed the stream's prefix at the
		// origin; the destination continues from there, fully resident.
		exec = newExecutor(execConfig{
			node: dest, src: precopyStream.rest(), as: as,
		})

	case FFAFileServer:
		// Three pages travel with the freeze; the origin flushes all dirty
		// pages to a file server, which serves the migrant's faults — but
		// only once the flush has landed (paper Figure 2, middle).
		fs := cluster.NewNode(eng, "fileserver", 1.0)
		fs.Handle(ctl)
		linkOF := netmodel.NewLink(eng, net, origin.NIC, fs.NIC)
		linkMF := netmodel.NewLink(eng, net, dest.NIC, fs.NIC)
		linkMF.SetBackgroundLoad(cfg.BackgroundLoad)

		tables := memory.NewTablePair(w.Layout.Pages())
		as.EvictAllToRemote()
		for _, p := range []memory.PageNum{
			w.Layout.Region(memory.RegionCode).Start,
			w.Layout.Region(memory.RegionHeap).Start,
			w.Layout.Region(memory.RegionStack).Start,
		} {
			as.SetState(p, memory.StateResident)
			if err := tables.TransferToMigrant(p); err != nil {
				return nil, fmt.Errorf("migrate: installing freeze page: %w", err)
			}
		}
		deputy = paging.NewDeputy(fs, linkMF, tables)
		deputy.SetAvailableAfter(simtime.Never)
		fsFlushDone = func(at simtime.Time) { deputy.SetAvailableAfter(at) }
		pager = paging.NewPager(dest, linkMF, as)
		exec = newExecutor(execConfig{node: dest, src: w.Source(), as: as, pager: pager})

		// The flush leaves the origin in parallel with the freeze.
		flushBytes := as.CountInState(memory.StateRemote) * cluster.PageFrameBytes
		eng.At(migrationStart, func() {
			eng.Schedule(cluster.MigrationBase, func() {
				linkOF.Send(origin.NIC, netmodel.Message{Size: flushBytes, Payload: freezeDone{func() {
					fsFlushDone(eng.Now())
				}}})
			})
		})

	case NoPrefetch, AMPoM:
		tables := memory.NewTablePair(w.Layout.Pages())
		as.EvictAllToRemote()
		// The three "currently accessed" pages travel with the freeze.
		for _, p := range []memory.PageNum{
			w.Layout.Region(memory.RegionCode).Start,
			w.Layout.Region(memory.RegionHeap).Start,
			w.Layout.Region(memory.RegionStack).Start,
		} {
			as.SetState(p, memory.StateResident)
			if err := tables.TransferToMigrant(p); err != nil {
				return nil, fmt.Errorf("migrate: installing freeze page: %w", err)
			}
		}
		deputy = paging.NewDeputy(origin, link, tables)
		pager = paging.NewPager(dest, link, as)

		ec := execConfig{node: dest, src: w.Source(), as: as, pager: pager}
		if cfg.Scheme == AMPoM {
			pre, err := core.New(cfg.AMPoM, w.Layout.Pages())
			if err != nil {
				return nil, err
			}
			destDaemon = infod.New(simtime.Second, dest, link, cfg.Seed^0xd41d)
			origDaemon = infod.New(simtime.Second, origin, link, cfg.Seed^0x8c1f)
			destDaemon.Start()
			origDaemon.Start()
			ec.pre = pre
			ec.est = destDaemon.Estimates
		}
		exec = newExecutor(ec)
		if destDaemon != nil {
			destDaemon.SetCPUUtil(exec.Utilization)
		}
	}

	// --- Run to completion --------------------------------------------------
	eng.MaxEvents = 500_000_000
	eng.RunAll()
	if !finished {
		return nil, fmt.Errorf("migrate: %s/%s did not finish (t=%v, pending=%d)",
			w.Name, cfg.Scheme, eng.Now(), eng.Pending())
	}

	// --- Collect ------------------------------------------------------------
	res.Exec = execEndAt.Sub(resumeAt)
	res.Total = simtime.Duration(execEndAt)
	res.Faults = exec.faults
	res.HardFaults = exec.hardFaults
	res.WaitFaults = exec.waitFaults
	res.SoftFaults = exec.softFaults
	res.AnalysisTime = exec.analysisTime
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
	}
	if destDaemon != nil {
		res.FinalRTTEst = destDaemon.RTT()
	}
	if deputy != nil && pager != nil {
		// Every page the deputy sent must have arrived at the migrant.
		if deputy.Stats.DemandServed+deputy.Stats.PrefetchServed != pager.Stats.PagesArrived {
			return nil, fmt.Errorf("migrate: page conservation violated: deputy sent %d+%d, migrant got %d",
				deputy.Stats.DemandServed, deputy.Stats.PrefetchServed, pager.Stats.PagesArrived)
		}
	}
	res.Events = eng.Processed
	return res, nil
}

// windowedStream executes a reference stream in wall-clock windows (the
// pre-copy rounds): consume() runs exactly `budget` of compute, splitting a
// reference that spans the window boundary, and rest() yields whatever has
// not executed yet for the destination executor to continue with.
type windowedStream struct {
	src     trace.Source
	node    *cluster.Node
	pending trace.Ref // partially computed reference, Compute = remainder
	hasPend bool
	done    bool
}

// consume runs budget worth of compute and returns the distinct pages
// written in the window (the dirty set the next pre-copy round must
// retransmit) and whether the stream ended inside the window.
func (ws *windowedStream) consume(budget simtime.Duration) (dirtied int64, ended bool) {
	written := make(map[memory.PageNum]bool)
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
				ws.done = true
				return int64(len(written)), true
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
			return int64(len(written)), false
		}
		used += ref.Compute
		if ref.Write {
			written[ref.Page] = true
		}
	}
	return int64(len(written)), false
}

// rest returns the unexecuted tail of the stream. References are already
// scaled to the origin node's CPU; the destination executor re-scales, so
// hand back reference-CPU durations by inverting the scale.
func (ws *windowedStream) rest() trace.Source {
	first := true
	return trace.FuncSource(func() (trace.Ref, bool) {
		if first {
			first = false
			if ws.hasPend {
				ref := ws.pending
				ref.Compute = simtime.Duration(float64(ref.Compute) * ws.node.CPUScale)
				return ref, true
			}
		}
		if ws.done {
			return trace.Ref{}, false
		}
		return ws.src.Next()
	})
}
