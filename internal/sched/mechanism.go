package sched

import (
	"ampom/internal/cluster"
	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// Mechanism is how a policy's migrations move a process. It prices both
// the estimate a policy weighs when it decides (Estimate, through
// View.Clears) and the charge the scenario engine books when the migration
// happens (PayloadBytes at the freeze, Restore at the destination).
//
// The estimate and the charge differ by these terms and nothing else
// (TestEstimateVersusCharge checks it):
//
//   - Page count: the estimate prices the fractional page count
//     footprint/PageSize, the charge whole pages.
//   - MPT install: the estimate truncates it to whole µs on the reference
//     CPU (the report goldens pin that rounding); the charge scales it by
//     the destination's CPU.
//   - Bandwidth: the estimate reads the view's BandwidthBps, the charge
//     streams the working set at the path's PathBandwidth.
//   - Unpriced payload: the estimate's freeze prices only the wire bytes
//     that grow with the footprint (full copy: the pages; lightweight: the
//     MPT). The PCB, full copy's per-page framing and the lightweight
//     freeze's three pages ship unpriced, and the fabric times the wire.
type Mechanism uint8

const (
	// EvacuationOnly, the zero value, is the no-migration baseline's: it
	// estimates nothing, since the policy never decides to migrate. A
	// crash evacuation still moves its processes, as a hybrid: the evacuee
	// ships the lightweight payload, restores with the protocol base cost
	// alone (no MPT install) and pages nothing after resume.
	EvacuationOnly Mechanism = iota
	// FullCopy is openMosix's: every page moves during the freeze, and
	// nothing is owed after resume.
	FullCopy
	// Lightweight is AMPoM's: three pages and the 6 B/page MPT move at the
	// freeze, the destination installs the MPT, and the working set is
	// remote-paged after resume as extra work (the Figure 6 finding that
	// prefetching amortises round trips but transfer time adds to compute).
	Lightweight
)

// Estimate is what a policy weighs before migrating a process of
// footprintMB, wsFrac of which it touches after the move, at bandwidthBps:
// the freeze, and the post-resume remote-paging work.
func (m Mechanism) Estimate(footprintMB int64, wsFrac, bandwidthBps float64) (freeze, extra simtime.Duration) {
	bytes := float64(footprintMB) * 1e6
	pages := bytes / memory.PageSize // the page-count term: fractional
	switch m {
	case FullCopy:
		return simtime.FromSeconds(bytes/bandwidthBps) + cluster.MigrationBase, 0
	case Lightweight:
		// The MPT install term: whole µs on the reference CPU.
		mptInstall := simtime.Duration(pages*float64(cluster.MPTEntryCPU/simtime.Microsecond)) * simtime.Microsecond
		freeze = simtime.FromSeconds(pages*memory.PTEntrySize/bandwidthBps) + mptInstall + cluster.MigrationBase
		return freeze, simtime.FromSeconds(bytes * wsFrac / bandwidthBps)
	}
	return 0, 0
}

// chargePages is the charge's page count: whole pages.
func chargePages(footprintMB int64) int64 { return footprintMB * 1e6 / memory.PageSize }

// PayloadBytes is the freeze-time wire payload, PCB included: every framed
// page for full copy, the lightweight payload for every other mechanism.
func (m Mechanism) PayloadBytes(footprintMB int64) int64 {
	pages := chargePages(footprintMB)
	if m == FullCopy {
		return pages*cluster.PageFrameBytes + cluster.RegisterBytes
	}
	return 3*memory.PageSize + pages*memory.PTEntrySize + cluster.RegisterBytes
}

// PagesAfterResume reports whether a migrant pages its working set in
// from its origin after resuming, which is when the prefetch census runs.
func (m Mechanism) PagesAfterResume() bool { return m == Lightweight }

// RestoreCharge is the destination's share of one migration's charge: the
// restore CPU, then the stall while WSPages stream in (zero unless the
// mechanism pages after resume).
type RestoreCharge struct {
	CPU     simtime.Duration
	WSPages int64
	Stream  simtime.Duration
}

// StreamBytes is the working set paged in after resume, in bytes.
func (r RestoreCharge) StreamBytes() int64 { return r.WSPages * memory.PageSize }

// Restore charges the destination for a migrant of footprintMB, wsFrac of
// which it touches after resume, restored on a CPU of relative speed
// cpuScale with pathBps back to its origin.
func (m Mechanism) Restore(footprintMB int64, wsFrac, cpuScale, pathBps float64) RestoreCharge {
	r := RestoreCharge{CPU: cluster.MigrationBase}
	if m.PagesAfterResume() {
		pages := chargePages(footprintMB)
		// The MPT install term: whole pages, on the destination's CPU.
		r.CPU += cluster.ScaleCPU(simtime.Duration(pages)*cluster.MPTEntryCPU, cpuScale)
		r.WSPages = int64(float64(pages) * wsFrac)
		r.Stream = simtime.FromSeconds(float64(r.StreamBytes()) / pathBps)
	}
	return r
}
