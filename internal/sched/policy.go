// Package sched owns the load balancer's decision surface for the paper's
// §7 outlook: "new scheduling policies can make use of AMPoM on openMosix to
// perform more aggressive migrations since the performance penalty of
// suboptimal decisions has been dramatically decreased."
//
// It holds the open BalancerPolicy interface, the sorted registry of
// policies, and the migration mechanisms each policy declares (Mechanism:
// FullCopy for openMosix's copy-everything freeze, Lightweight for AMPoM),
// which price both a policy's decision and the migration the scenario
// engine charges. The classic cost-benefit policies migrate a process only
// when its expected remaining work justifies the cost (the conservatism of
// Harchol-Balter & Downey, the paper's [10]); AMPoM's far cheaper
// mechanism makes the same rule fire more often. The probabilistic
// load-vector, memory-ushering and queue-gossip policies model the
// dissemination and memory-pressure behaviours openMosix farms tuned in
// practice.
//
// The package simulates nothing: the cluster simulation that drives these
// policies lives in internal/scenario.
//
// A policy is a stateless, immutable value: every input it decides on
// arrives through the View, including the PRNG stream probabilistic
// policies draw from. That makes one registered instance safe to share
// across the campaign engine's concurrent scenario workers.
package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ampom/internal/prng"
	"ampom/internal/simtime"
)

// NodeView is one node as the balancer sees it at a decision point.
type NodeView struct {
	// Procs is the number of live processes resident on the node.
	Procs int
	// CPUScale is the node's CPU speed relative to the reference CPU.
	CPUScale float64
	// Load is the CPU-scaled load the balancer compares: Procs / CPUScale.
	Load float64
	// UsedMemMB sums the footprints of the processes resident on the node.
	UsedMemMB int64
	// CapacityMB is the node's physical memory.
	CapacityMB int64
	// QueueLen is the node's runnable-queue length as disseminated to the
	// deciding node: gossip-aged on switched fabrics, exact (equal to
	// Procs) on the legacy star.
	QueueLen int
	// InfoAge is how stale this row's dissemination entry is. Zero means
	// ground truth (or a fresh gossip entry).
	InfoAge simtime.Duration
	// Unknown marks a row the deciding node has no dissemination entry
	// for yet — gossip has not reached it. Policies must not target
	// unknown rows; the zero value (known) keeps hand-built views working.
	Unknown bool
}

// ProcView is the migration candidate a policy is asked about.
type ProcView struct {
	// ID is the process identifier (stable across the run).
	ID int
	// Node is the process's current node.
	Node int
	// Remaining is the candidate's estimated remaining service demand.
	Remaining simtime.Duration
	// FootprintMB is the process footprint.
	FootprintMB int64
	// WorkingSetFrac is the fraction of the footprint the process touches
	// after migrating (§5.6).
	WorkingSetFrac float64
}

// View is everything a policy sees at one decision point. It is rebuilt by
// the driving simulator before every decision, so policies stay stateless.
type View struct {
	// Nodes holds every node's current state, indexed by node id.
	//
	// The slice is on loan for the duration of one ShouldMigrate call: the
	// drivers reuse its backing storage between hand-offs (and, with the
	// incremental scenario view, refresh only the rows that changed), so a
	// policy must neither retain Nodes past the call nor mutate its rows.
	// Drivers defend the *next* round by rewriting or re-copying every row
	// they hand out, but a policy that breaks the contract still corrupts
	// its own remaining decisions of the current round.
	Nodes []NodeView
	// BandwidthBps is the monitoring daemons' conservative estimate of the
	// interconnect bandwidth available to a migration.
	BandwidthBps float64
	// CostThreshold is the cost-benefit safety factor of the run.
	CostThreshold float64
	// Rand is the run's policy-decision PRNG stream. Probabilistic policies
	// draw from it; deterministic policies ignore it. May be nil, in which
	// case probabilistic policies fall back to full knowledge.
	Rand *prng.Source
	// SampleLen, when positive, overrides the sample size l of the
	// sampling policies (load-vector, queue-gossip). Zero keeps each
	// policy's built-in default. Scenario runs populate it from
	// Spec.LoadVectorLen.
	SampleLen int

	// least memoises LeastLoaded for drivers that hand the same immutable
	// rows to several candidate decisions in a row (CacheLeastLoaded). Nil
	// — the zero value every hand-built view has — recomputes per call.
	least *int
}

// CacheLeastLoaded installs (and resets) a memo cell for LeastLoaded.
// Drivers that guarantee the view's rows stay unchanged for the lifetime of
// one hand-off call it at every hand-off, so policies that consult
// LeastLoaded once per candidate pay the O(nodes) scan once per view
// instead. The cell is driver-owned storage; resetting it at each hand-off
// is what keeps the memo coherent when the backing rows are refreshed.
func (v *View) CacheLeastLoaded(cell *int) {
	*cell = -1
	v.least = cell
}

// BalancerPolicy decides when and where the load balancer migrates. The
// three methods are the whole contract: a name (the registry key and report
// label), the mechanism its migrations use, and the decision itself.
type BalancerPolicy interface {
	// Name is the registry key. Reports key their per-policy rows by it.
	Name() string
	// Mechanism is how the policy's migrations move a process. The
	// scenario engine reads it once per simulation and charges every
	// migration, evacuations included, by it.
	Mechanism() Mechanism
	// ShouldMigrate decides whether proc should move, returning the
	// destination node. The driver offers candidates from the most loaded
	// nodes first, longest remaining demand first. The view's Nodes slice
	// is on loan for this call only — policies must not retain or mutate
	// it (see View.Nodes).
	ShouldMigrate(view View, proc ProcView) (dest int, ok bool)
}

// FreezePayloadSizer stays only because the benchmark module still names it.
//
// Deprecated: Mechanism declares the freeze payload. Nothing in this
// module implements or consults this interface.
type FreezePayloadSizer interface{ FreezePayloadBytes(footprintMB int64) int64 }

// RemotePager stays only because the benchmark module still names it.
//
// Deprecated: Mechanism declares whether a migrant pages after resume.
// Nothing in this module implements or consults this interface.
type RemotePager interface{ RemotePages() bool }

// The built-in policy names, in registry-sorted order.
const (
	NameAMPoM       = "AMPoM"
	NameLoadVector  = "load-vector"
	NameMemUsher    = "mem-usher"
	NameNoMigration = "no-migration"
	NameOpenMosix   = "openMosix"
	NameQueueGossip = "queue-gossip"
)

// BaselineName is the policy every report's slowdown ratios divide by.
const BaselineName = NameNoMigration

// MaxCandidates bounds how many processes per node a driving simulator
// offers the policy each balancing round, longest remaining demand first.
const MaxCandidates = 4

// TopCandidatesInto selects up to MaxCandidates eligible items with the
// largest remaining demand, earliest-input-first on ties (callers iterate
// their processes in ascending id order). It appends into buf[:0], so
// hot-path callers (one selection per node per balance round) can reuse
// one scratch slice instead of allocating per call.
func TopCandidatesInto[T any](buf []T, items []T, eligible func(T) bool, remaining func(T) simtime.Duration) []T {
	top := buf[:0]
	for _, it := range items {
		if !eligible(it) {
			continue
		}
		at := len(top)
		for at > 0 && remaining(top[at-1]) < remaining(it) {
			at--
		}
		if at >= MaxCandidates {
			continue
		}
		var zero T
		top = append(top, zero)
		copy(top[at+1:], top[at:])
		top[at] = it
		if len(top) > MaxCandidates {
			top = top[:MaxCandidates]
		}
	}
	return top
}

// LeastLoaded returns the index of the least loaded node (lowest index on
// ties).
func (v View) LeastLoaded() int {
	if v.least != nil && *v.least >= 0 {
		return *v.least
	}
	best := 0
	for i, n := range v.Nodes {
		if n.Load < v.Nodes[best].Load {
			best = i
		}
	}
	if v.least != nil {
		*v.least = best
	}
	return best
}

// Clears applies the cost-benefit rule of Harchol-Balter & Downey (the
// paper's [10]): proc migrates to dest only when its estimated completion
// staying put (processor sharing on its node) beats migrating (m's
// estimated freeze and remote-paging stalls, then sharing on dest) by the
// view's safety factor.
func (v View) Clears(p ProcView, dest int, m Mechanism) bool {
	freeze, extra := m.Estimate(p.FootprintMB, p.WorkingSetFrac, v.BandwidthBps)
	src, dst := v.Nodes[p.Node], v.Nodes[dest]
	stay := float64(p.Remaining) * float64(src.Procs) / src.CPUScale
	move := float64(freeze+extra) + float64(p.Remaining)*float64(dst.Procs+1)/dst.CPUScale
	return stay >= v.CostThreshold*move
}

// noMigration is the baseline: it never migrates by choice. A crash
// evacuation still moves its processes, charged as EvacuationOnly.
type noMigration struct{}

func (noMigration) Name() string { return NameNoMigration }

func (noMigration) Mechanism() Mechanism { return EvacuationOnly }

func (noMigration) ShouldMigrate(View, ProcView) (int, bool) { return 0, false }

// classic is the §7 cost-benefit rule over one mechanism: target the
// globally least loaded node, require a real load gap, and migrate when
// the rule clears. Under openMosix's full copy most candidate moves fail
// the rule, so the balancer holds back; AMPoM's lightweight freeze makes
// far more of them clear it — the paper's "more aggressive migrations".
type classic struct {
	name string
	mech Mechanism
}

func (p classic) Name() string { return p.name }

func (p classic) Mechanism() Mechanism { return p.mech }

func (p classic) ShouldMigrate(v View, proc ProcView) (int, bool) {
	dest := v.LeastLoaded()
	if dest == proc.Node || v.Nodes[proc.Node].Load <= v.Nodes[dest].Load || !v.Clears(proc, dest, p.mech) {
		return 0, false
	}
	return dest, true
}

// loadVector models openMosix's probabilistic load-vector dissemination:
// each node gossips its load to a few random peers per tick, so a balancer
// decides from an l-entry random sample of the cluster rather than global
// knowledge. The policy draws that sample from the view's PRNG stream,
// targets the least loaded node *it happens to know about*, and migrates
// with the lightweight mechanism (it rides the AMPoM substrate).
type loadVector struct {
	// vectorLen is l, the number of peer loads in the gossiped vector.
	vectorLen int
}

func (loadVector) Name() string { return NameLoadVector }

func (loadVector) Mechanism() Mechanism { return Lightweight }

func (p loadVector) ShouldMigrate(v View, proc ProcView) (int, bool) {
	n := len(v.Nodes)
	l := p.vectorLen
	if v.SampleLen > 0 {
		l = v.SampleLen
	}
	dest, know := -1, false
	if v.Rand == nil || l >= n-1 {
		// Full knowledge degenerates to the classic target.
		if d := v.LeastLoaded(); d != proc.Node {
			dest, know = d, true
		}
	} else {
		// Draw the l peers whose loads reached this node's vector. Peers can
		// repeat (gossip is redundant); the sample is still deterministic per
		// run because the stream is seeded from (scenario seed, policy name).
		for i := 0; i < l; i++ {
			c := v.Rand.Intn(n)
			if c == proc.Node || v.Nodes[c].Unknown {
				continue
			}
			if !know || v.Nodes[c].Load < v.Nodes[dest].Load ||
				(v.Nodes[c].Load == v.Nodes[dest].Load && c < dest) {
				dest, know = c, true
			}
		}
	}
	if !know || v.Nodes[proc.Node].Load <= v.Nodes[dest].Load || !v.Clears(proc, dest, p.Mechanism()) {
		return 0, false
	}
	return dest, true
}

// memUsher models openMosix's memory ushering: when a node's resident
// footprints push past the high-water fraction of its physical memory, the
// balancer evacuates processes to the node with the most free memory —
// regardless of CPU load, because paging to disk costs more than any
// imbalance. Its decision prices nothing, but its migrations use the
// lightweight mechanism.
type memUsher struct {
	// highWater is the used-memory fraction that triggers ushering;
	// lowWater bounds how full a destination may get.
	highWater, lowWater float64
}

func (memUsher) Name() string { return NameMemUsher }

func (memUsher) Mechanism() Mechanism { return Lightweight }

func (p memUsher) ShouldMigrate(v View, proc ProcView) (int, bool) {
	src := v.Nodes[proc.Node]
	if src.CapacityMB <= 0 ||
		float64(src.UsedMemMB) < p.highWater*float64(src.CapacityMB) {
		return 0, false
	}
	best, bestFree := -1, int64(0)
	for i, n := range v.Nodes {
		// Unknown rows carry the cluster-configured capacity but no usage
		// sample — ushering onto a node whose pressure is unknown could be
		// exactly the paging disaster the policy exists to avoid.
		if i == proc.Node || n.Unknown || n.CapacityMB <= 0 {
			continue
		}
		if float64(n.UsedMemMB+proc.FootprintMB) > p.lowWater*float64(n.CapacityMB) {
			continue
		}
		if free := n.CapacityMB - n.UsedMemMB; free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// queueGossip consumes the gossip-aged queue lengths the decentralised
// infod dissemination carries (NodeView.QueueLen/InfoAge): it samples l
// known peers from the deciding node's vector, targets the shortest
// CPU-scaled queue (freshest entry on ties), requires a real queue gap
// even after the candidate lands, and applies the cost-benefit rule to
// the lightweight mechanism. On a fabric where entries age with topology
// distance, the policy's picture of far racks lags — the price of
// decentralisation the gossip literature trades for scalability.
type queueGossip struct {
	// sample is l, how many vector entries one decision inspects.
	sample int
}

func (queueGossip) Name() string { return NameQueueGossip }

func (queueGossip) Mechanism() Mechanism { return Lightweight }

func (p queueGossip) ShouldMigrate(v View, proc ProcView) (int, bool) {
	n := len(v.Nodes)
	l := p.sample
	if v.SampleLen > 0 {
		l = v.SampleLen
	}
	scaledQ := func(c int, extra int) float64 {
		return float64(v.Nodes[c].QueueLen+extra) / v.Nodes[c].CPUScale
	}
	dest, know := -1, false
	consider := func(c int) {
		if c == proc.Node || v.Nodes[c].Unknown {
			return
		}
		if !know || scaledQ(c, 0) < scaledQ(dest, 0) ||
			(scaledQ(c, 0) == scaledQ(dest, 0) &&
				(v.Nodes[c].InfoAge < v.Nodes[dest].InfoAge ||
					(v.Nodes[c].InfoAge == v.Nodes[dest].InfoAge && c < dest))) {
			dest, know = c, true
		}
	}
	if v.Rand == nil || l >= n-1 {
		for c := range v.Nodes {
			consider(c)
		}
	} else {
		for i := 0; i < l; i++ {
			consider(v.Rand.Intn(n))
		}
	}
	// The gap must survive the candidate joining the destination queue.
	if !know || scaledQ(proc.Node, 0) <= scaledQ(dest, 1) || !v.Clears(proc, dest, p.Mechanism()) {
		return 0, false
	}
	return dest, true
}

// The built-in policy instances, usable directly without a registry lookup.
var (
	NoMigrationPolicy BalancerPolicy = noMigration{}
	OpenMosixPolicy   BalancerPolicy = classic{NameOpenMosix, FullCopy}
	AMPoMPolicy       BalancerPolicy = classic{NameAMPoM, Lightweight}
	LoadVectorPolicy  BalancerPolicy = loadVector{vectorLen: 3}
	MemUsherPolicy    BalancerPolicy = memUsher{highWater: 0.85, lowWater: 0.6}
	QueueGossipPolicy BalancerPolicy = queueGossip{sample: 8}
)

// The registry. Policies are keyed by Name(); enumeration is always in
// sorted-name order, so every report and fingerprint that iterates the
// registry is deterministic.
var (
	regMu    sync.RWMutex
	registry = map[string]BalancerPolicy{}
)

func init() {
	for _, p := range []BalancerPolicy{
		NoMigrationPolicy, OpenMosixPolicy, AMPoMPolicy, LoadVectorPolicy, MemUsherPolicy,
		QueueGossipPolicy,
	} {
		MustRegister(p)
	}
}

// Register adds a policy to the registry. It fails on an empty name or a
// name already taken.
func Register(p BalancerPolicy) error {
	name := p.Name()
	if name == "" {
		return fmt.Errorf("sched: policy with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("sched: policy %q already registered", name)
	}
	registry[name] = p
	return nil
}

// MustRegister is Register, panicking on failure — for package init blocks.
func MustRegister(p BalancerPolicy) {
	if err := Register(p); err != nil {
		panic(err)
	}
}

// Lookup returns the policy registered under name.
func Lookup(name string) (BalancerPolicy, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Names returns every registered policy name, sorted — the canonical
// iteration order of reports and fingerprints.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// ByNames resolves names to registered policies, preserving input order.
func ByNames(names []string) ([]BalancerPolicy, error) {
	out := make([]BalancerPolicy, len(names))
	for i, n := range names {
		p, ok := Lookup(n)
		if !ok {
			return nil, fmt.Errorf("sched: unknown balancer policy %q (registered: %s)",
				n, strings.Join(Names(), ", "))
		}
		out[i] = p
	}
	return out, nil
}
