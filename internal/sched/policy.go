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
//
// A View serves its rows on demand through the Rows interface: the
// scenario balancer hands a policy the live ground-truth rows, or the
// deciding node's own gossip table, without copying either, and a
// hand-built view wraps a slice in RowSlice.
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

// Rows serves the rows of a View: Row(i) is node i as the deciding node
// sees it, for 0 <= i < Len(). LeastLoaded returns what a scan of the rows
// would, the lowest index at minimum load; a driver that keeps its rows
// ordered, or memoised, answers it without the scan.
//
// A driver's Rows read its own state when called, so a View shows the
// cluster as it is at the read, not a copy taken at the hand-off. Policies
// read rows only through the View.
type Rows interface {
	Len() int
	Row(i int) NodeView
	LeastLoaded() int
}

// RowSlice is a Rows over rows held in a slice, for hand-built views.
type RowSlice []NodeView

// Len returns the number of rows.
func (s RowSlice) Len() int { return len(s) }

// Row returns row i.
func (s RowSlice) Row(i int) NodeView { return s[i] }

// LeastLoaded scans the rows for the least loaded node, lowest index on
// ties.
func (s RowSlice) LeastLoaded() int {
	best := 0
	for i := range s {
		if s[i].Load < s[best].Load {
			best = i
		}
	}
	return best
}

// View is everything a policy sees at one decision point. The driving
// simulator hands one to every decision, so policies stay stateless.
type View struct {
	// Rows serves every node's current state, indexed by node id; read it
	// through Node, Len and LeastLoaded. Rows are values: a policy cannot
	// change what the driver or any later decision sees.
	Rows Rows
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
}

// Node returns node i's row.
func (v View) Node(i int) NodeView { return v.Rows.Row(i) }

// Len returns the number of nodes in the view.
func (v View) Len() int { return v.Rows.Len() }

// LeastLoaded returns the index of the least loaded node (lowest index on
// ties).
func (v View) LeastLoaded() int { return v.Rows.LeastLoaded() }

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
	// nodes first, longest remaining demand first.
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

// Clears applies the cost-benefit rule of Harchol-Balter & Downey (the
// paper's [10]): proc migrates to dest only when its estimated completion
// staying put (processor sharing on its node) beats migrating (m's
// estimated freeze and remote-paging stalls, then sharing on dest) by the
// view's safety factor.
func (v View) Clears(p ProcView, dest int, m Mechanism) bool {
	return v.clears(p, v.Node(p.Node), v.Node(dest), m)
}

// clears is Clears over the source and destination rows the caller has
// read already.
func (v View) clears(p ProcView, src, dst NodeView, m Mechanism) bool {
	freeze, extra := m.Estimate(p.FootprintMB, p.WorkingSetFrac, v.BandwidthBps)
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
	if dest == proc.Node {
		return 0, false
	}
	src, dst := v.Node(proc.Node), v.Node(dest)
	if src.Load <= dst.Load || !v.clears(proc, src, dst, p.mech) {
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
	n := v.Len()
	l := p.vectorLen
	if v.SampleLen > 0 {
		l = v.SampleLen
	}
	dest, know := -1, false
	var dst NodeView
	if v.Rand == nil || l >= n-1 {
		// Full knowledge degenerates to the classic target.
		if d := v.LeastLoaded(); d != proc.Node {
			dest, know, dst = d, true, v.Node(d)
		}
	} else {
		// Draw the l peers whose loads reached this node's vector. Peers can
		// repeat (gossip is redundant); the sample is still deterministic per
		// run because the stream is seeded from (scenario seed, policy name).
		for i := 0; i < l; i++ {
			c := v.Rand.Intn(n)
			if c == proc.Node {
				continue
			}
			row := v.Node(c)
			if row.Unknown {
				continue
			}
			if !know || row.Load < dst.Load || (row.Load == dst.Load && c < dest) {
				dest, know, dst = c, true, row
			}
		}
	}
	if !know {
		return 0, false
	}
	if src := v.Node(proc.Node); src.Load <= dst.Load || !v.clears(proc, src, dst, p.Mechanism()) {
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
	src := v.Node(proc.Node)
	if src.CapacityMB <= 0 ||
		float64(src.UsedMemMB) < p.highWater*float64(src.CapacityMB) {
		return 0, false
	}
	best, bestFree := -1, int64(0)
	for i, nodes := 0, v.Len(); i < nodes; i++ {
		if i == proc.Node {
			continue
		}
		// Unknown rows carry the cluster-configured capacity but no usage
		// sample — ushering onto a node whose pressure is unknown could be
		// exactly the paging disaster the policy exists to avoid.
		n := v.Node(i)
		if n.Unknown || n.CapacityMB <= 0 {
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
	n := v.Len()
	l := p.sample
	if v.SampleLen > 0 {
		l = v.SampleLen
	}
	scaledQ := func(r NodeView, extra int) float64 {
		return float64(r.QueueLen+extra) / r.CPUScale
	}
	dest, know := -1, false
	var dst NodeView
	consider := func(c int) {
		if c == proc.Node {
			return
		}
		row := v.Node(c)
		if row.Unknown {
			return
		}
		if !know || scaledQ(row, 0) < scaledQ(dst, 0) ||
			(scaledQ(row, 0) == scaledQ(dst, 0) &&
				(row.InfoAge < dst.InfoAge || (row.InfoAge == dst.InfoAge && c < dest))) {
			dest, know, dst = c, true, row
		}
	}
	if v.Rand == nil || l >= n-1 {
		for c := 0; c < n; c++ {
			consider(c)
		}
	} else {
		for i := 0; i < l; i++ {
			consider(v.Rand.Intn(n))
		}
	}
	// The gap must survive the candidate joining the destination queue.
	if !know {
		return 0, false
	}
	if src := v.Node(proc.Node); scaledQ(src, 0) <= scaledQ(dst, 1) || !v.clears(proc, src, dst, p.Mechanism()) {
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
