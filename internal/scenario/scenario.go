// Package scenario is the cluster-scale scenario engine: it composes the
// discrete-event engine, cluster nodes, the star interconnect, the oM_infoD
// monitoring daemons, the §7 load balancer and the AMPoM prefetcher into
// end-to-end multi-node runs. A Spec declares the cluster (node count, CPU
// heterogeneity, network tier), the workload (process count, arrival model,
// per-process trace mixes) and mid-run churn (node slowdowns, arrival
// bursts, background network load); the runner executes the scenario under
// every balancing policy from a single seed and emits a cluster-level
// Report — migrations, aggregate slowdown against the no-migration
// baseline, and fault/prefetch totals per scheme.
//
// Determinism is the contract: Run is a pure function of (Spec, seed). Each
// policy's simulation owns a private engine and PRNG stream, so two runs
// with the same seed render byte-identical reports whatever worker pool
// executes them.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ampom/internal/fabric"
	"ampom/internal/infod"
	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/prng"
	"ampom/internal/sched"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// MixKind names a per-process page-reference shape. The mix decides both
// the trace the process replays after a migration and the fraction of its
// footprint it actually touches (the §5.6 working-set effect).
type MixKind uint8

// The modelled reference mixes.
const (
	// MixSequential sweeps the working set in order — DGEMM/STREAM-like,
	// the best case for stride prefetching.
	MixSequential MixKind = iota
	// MixBlocked visits cache-sized blocks in scattered order but pages
	// within a block sequentially — FFT-transpose-like.
	MixBlocked
	// MixRandom touches pages uniformly at random — RandomAccess-like, the
	// worst case for prefetching.
	MixRandom
	// MixSmallWS is an interactive/VM-like process: a large allocation of
	// which only a small resident set is swept.
	MixSmallWS
)

// String names the mix.
func (k MixKind) String() string {
	switch k {
	case MixSequential:
		return "sequential"
	case MixBlocked:
		return "blocked"
	case MixRandom:
		return "random"
	case MixSmallWS:
		return "small-ws"
	default:
		return fmt.Sprintf("MixKind(%d)", uint8(k))
	}
}

// WorkingSetFrac is the fraction of the footprint a process of this mix
// touches after migrating (§5.6 motivates < 1).
func (k MixKind) WorkingSetFrac() float64 {
	switch k {
	case MixSequential:
		return 0.9
	case MixBlocked:
		return 0.7
	case MixRandom:
		return 0.5
	case MixSmallWS:
		return 0.15
	default:
		return 0.5
	}
}

// blockedMixBlock is the block length, in pages, of the blocked mix's
// block-permuted sweep.
const blockedMixBlock = 16

// Program returns the page-reference program a migrant of this mix replays
// over a working set of wsPages.
func (k MixKind) Program(wsPages int64, seed uint64) trace.Program {
	if wsPages < 1 {
		wsPages = 1
	}
	switch k {
	case MixBlocked:
		return trace.BlockPermuted(0, wsPages, blockedMixBlock, 0, false, seed).Program()
	case MixRandom:
		return trace.RandomUniform(0, wsPages, wsPages, 0, false, seed).Program()
	default: // sequential and small-ws sweep their (differently sized) sets
		return trace.Sequential(0, wsPages, 0, false).Program()
	}
}

// Trace returns a function opening a cursor at the start of the mix's
// program over a working set of wsPages: each call replays the same
// stream.
func (k MixKind) Trace(wsPages int64, seed uint64) func() *trace.Cursor {
	return k.Program(wsPages, seed).Open
}

// CoverProgram is Program with a full-coverage guarantee: every page of the
// span is touched exactly once. The random mix becomes a random
// permutation — the same scattered shape, but total. The facade's
// LiveProgramFor repeats it once per pass, and the live emulator
// (internal/emu) runs that program over real byte pages, so the simulated
// and emulated worlds replay one shape.
func (k MixKind) CoverProgram(pages int64, seed uint64) trace.Program {
	if pages < 1 {
		pages = 1
	}
	if k == MixRandom {
		return trace.BlockPermuted(0, pages, 1, 0, false, seed).Program()
	}
	return k.Program(pages, seed)
}

// MixWeight is one entry of a scenario's workload mix.
type MixWeight struct {
	Kind   MixKind `json:"kind"`
	Weight int     `json:"weight"`
}

// ArrivalModel selects how processes enter the cluster.
type ArrivalModel uint8

// Arrival models.
const (
	// ArrivalBatch drops every process at t = 0 (the classic burst landing
	// on an entry node).
	ArrivalBatch ArrivalModel = iota
	// ArrivalPoisson spaces arrivals by exponentially distributed gaps with
	// mean MeanInterarrival.
	ArrivalPoisson
)

// String names the model.
func (a ArrivalModel) String() string {
	switch a {
	case ArrivalBatch:
		return "batch"
	case ArrivalPoisson:
		return "poisson"
	default:
		return fmt.Sprintf("ArrivalModel(%d)", uint8(a))
	}
}

// Placement selects where arriving processes land.
type Placement uint8

// Placements.
const (
	// PlaceSkewed lands a process on node 0 with probability Skew, else on
	// a uniformly random node.
	PlaceSkewed Placement = iota
	// PlaceRoundRobin deals processes out rank-style, process i on node
	// i mod Nodes (the MPI launcher shape).
	PlaceRoundRobin
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceSkewed:
		return "skewed"
	case PlaceRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Placement(%d)", uint8(p))
	}
}

// FabricSpec selects the interconnect topology and its dissemination
// parameters. The zero value is the legacy single-hub star with paired
// infod daemons — byte-compatible with pre-fabric releases. Switched
// topologies (two-tier, flat) route payloads hop by hop through per-link
// queues and replace the paired daemons with decentralised gossip.
type FabricSpec struct {
	// Topology selects the interconnect shape. Default: the star.
	Topology fabric.Kind `json:"topology"`
	// RackSize is the number of nodes under one leaf switch (two-tier
	// only; default 16).
	RackSize int `json:"rack_size,omitempty"`
	// Oversub is the core oversubscription ratio (two-tier only;
	// default 4): a rack's uplink carries RackSize/Oversub node-links'
	// worth of bandwidth.
	Oversub float64 `json:"oversubscription,omitempty"`
	// GossipFanout is how many random peers each node's daemon pushes its
	// load vector to per period (switched topologies; default 2).
	GossipFanout int `json:"gossip_fanout,omitempty"`
	// GossipPeriod is the gossip push period (switched topologies;
	// default 2 s, the paired daemons' historical update period).
	GossipPeriod simtime.Duration `json:"gossip_period"`
	// GossipWindow is l, the bounded number of load-vector entries (own
	// sample included) one gossip push or pull response carries — the
	// openMosix windowed dissemination (switched topologies; default 32).
	GossipWindow int `json:"gossip_window,omitempty"`
}

// Canonical resolves the fabric block's defaults. The star zeroes every
// other field (they are meaningless on it), which keeps the default block
// a fixed point that fingerprints and encodes as the legacy empty value.
func (f FabricSpec) Canonical() FabricSpec {
	if f.Topology == fabric.KindStar {
		return FabricSpec{}
	}
	if f.Topology == fabric.KindTwoTier {
		if f.RackSize <= 0 {
			f.RackSize = fabric.DefaultRackSize
		}
		if f.Oversub == 0 {
			f.Oversub = fabric.DefaultOversub
		}
	} else {
		f.RackSize, f.Oversub = 0, 0
	}
	if f.GossipFanout <= 0 {
		f.GossipFanout = fabric.DefaultGossipFanout
	}
	if f.GossipPeriod == 0 {
		f.GossipPeriod = fabric.DefaultGossipPeriod
	}
	if f.GossipWindow <= 0 {
		f.GossipWindow = fabric.DefaultGossipWindow
	}
	return f
}

// IsDefault reports whether the block is the legacy star default.
func (f FabricSpec) IsDefault() bool { return f.Topology == fabric.KindStar }

// Validate reports the first structural problem of the canonical block.
func (f FabricSpec) Validate() error {
	f = f.Canonical()
	switch f.Topology {
	case fabric.KindStar:
		return nil
	case fabric.KindTwoTier:
		if f.RackSize < 2 {
			return fmt.Errorf("scenario: fabric rack size %d below 2", f.RackSize)
		}
		if !(f.Oversub > 0 && f.Oversub <= 64) {
			return fmt.Errorf("scenario: fabric oversubscription %g out of (0,64]", f.Oversub)
		}
	case fabric.KindFlat:
		// No shape parameters.
	default:
		return fmt.Errorf("scenario: unknown fabric topology %v", f.Topology)
	}
	if f.GossipFanout < 1 || f.GossipFanout > 64 {
		return fmt.Errorf("scenario: gossip fanout %d out of [1,64]", f.GossipFanout)
	}
	if f.GossipPeriod <= 0 {
		return fmt.Errorf("scenario: non-positive gossip period %v", f.GossipPeriod)
	}
	if f.GossipWindow < 1 || f.GossipWindow > 1<<16 {
		return fmt.Errorf("scenario: gossip window %d out of [1,65536]", f.GossipWindow)
	}
	return nil
}

// String names the block in fingerprints.
func (f FabricSpec) String() string {
	f = f.Canonical()
	if f.IsDefault() {
		return f.Topology.String()
	}
	return fmt.Sprintf("%s/%d/%g/%d/%d/%d",
		f.Topology, f.RackSize, f.Oversub, f.GossipFanout, int64(f.GossipPeriod), f.GossipWindow)
}

// ChurnKind names a mid-run disturbance.
type ChurnKind uint8

// Churn kinds.
const (
	// ChurnSlowNode multiplies one node's CPU scale by Factor at time At
	// (thermal throttling, a co-scheduled interactive user).
	ChurnSlowNode ChurnKind = iota
	// ChurnBurst injects Procs extra processes on node Node at time At.
	ChurnBurst
	// ChurnNetLoad sets the background-load fraction of every spoke link
	// (Node < 0) or one node's spoke (Node >= 1) to Factor at time At.
	ChurnNetLoad
	// ChurnBalloon multiplies the memory footprint of the largest live
	// process on node Node by Factor at time At (an in-memory data set
	// growing mid-run) — the dynamic pressure that exercises memory
	// ushering beyond skewed arrival.
	ChurnBalloon
	// ChurnNodeCrash fails node Node at time At: its edge link goes down,
	// its runnable residents lose their progress (or, with Spec.Evacuate,
	// are migrated off before connectivity dies), and in-flight migrations
	// that can no longer be delivered fail back to their sources. Requires
	// a switched fabric.
	ChurnNodeCrash
	// ChurnNodeRecover brings a crashed node back at time At: its edge
	// link comes up and its stranded residents resume (crash-killed ones
	// from scratch, failed-back migrants from their checkpoints).
	ChurnNodeRecover
	// ChurnLinkDown fails one fabric link at time At: Node >= 0 is node
	// Node's edge link, Node = -(r+1) is rack r's core uplink (two-tier
	// only). A down link refuses new traffic at the switch; migrations
	// that lose their route fail back to their sources.
	ChurnLinkDown
	// ChurnLinkUp repairs the link addressed the same way as ChurnLinkDown.
	ChurnLinkUp
)

// churnKindNames is the single churn-kind registry: String, the JSON
// codec's UnmarshalText, validation's known-kind check and the CLI
// listing all derive from it, so a kind added here cannot round-trip as
// unknown anywhere else. Index == kind value.
var churnKindNames = [...]string{
	ChurnSlowNode:    "slow-node",
	ChurnBurst:       "burst",
	ChurnNetLoad:     "net-load",
	ChurnBalloon:     "balloon",
	ChurnNodeCrash:   "node-crash",
	ChurnNodeRecover: "node-recover",
	ChurnLinkDown:    "link-down",
	ChurnLinkUp:      "link-up",
}

// ChurnKindNames lists every churn kind in declaration order.
func ChurnKindNames() []string {
	return append([]string(nil), churnKindNames[:]...)
}

// String names the kind.
func (k ChurnKind) String() string {
	if int(k) < len(churnKindNames) {
		return churnKindNames[k]
	}
	return fmt.Sprintf("ChurnKind(%d)", uint8(k))
}

// failure reports whether the kind belongs to the failure plane — the
// events under which reports grow sojourn percentiles and failure
// counters, and which require a switched fabric.
func (k ChurnKind) failure() bool {
	switch k {
	case ChurnNodeCrash, ChurnNodeRecover, ChurnLinkDown, ChurnLinkUp:
		return true
	}
	return false
}

// ChurnEvent is one scheduled disturbance.
type ChurnEvent struct {
	At     simtime.Duration `json:"at"`
	Kind   ChurnKind        `json:"kind"`
	Node   int              `json:"node"`             // target node (ChurnNetLoad: -1 means every spoke; ChurnLinkDown/Up: -(r+1) means rack r's uplink)
	Factor float64          `json:"factor,omitempty"` // ChurnSlowNode: CPU multiplier; ChurnNetLoad: load fraction; ChurnBalloon: footprint multiplier
	Procs  int              `json:"procs,omitempty"`  // ChurnBurst: how many processes arrive
}

// Spec declares one cluster scenario. Zero fields take defaults; Canonical
// resolves them, and Fingerprint (the campaign cache/seed key) is computed
// from the canonical form. The json tags are the on-disk spec format
// (codec.go); the key order on disk is the field order here.
type Spec struct {
	// Name labels the scenario in reports and fingerprints.
	Name string `json:"name,omitempty"`
	// Nodes is the cluster size. Default 8.
	Nodes int `json:"nodes,omitempty"`
	// Procs is the number of processes injected (before bursts).
	// Default 4×Nodes.
	Procs int `json:"procs,omitempty"`

	// CPU heterogeneity: SlowFrac of the nodes run at SlowScale and
	// FastFrac at FastScale relative to the reference CPU; the rest run at
	// 1.0. Defaults: no heterogeneity (fracs 0), SlowScale 0.5,
	// FastScale 2.
	SlowFrac  float64 `json:"slow_frac,omitempty"`
	FastFrac  float64 `json:"fast_frac,omitempty"`
	SlowScale float64 `json:"slow_scale,omitempty"`
	FastScale float64 `json:"fast_scale,omitempty"`

	// Arrival is the arrival model; MeanInterarrival spaces Poisson
	// arrivals (default 250 ms).
	Arrival          ArrivalModel     `json:"arrival"`
	MeanInterarrival simtime.Duration `json:"mean_interarrival"`
	// Placement and Skew drive initial placement. Skew defaults to 0.8;
	// a negative value means explicitly uniform placement (the legitimate
	// 0 is not expressible directly because zero means "use the default").
	Placement Placement `json:"placement"`
	Skew      float64   `json:"skew,omitempty"`

	// MeanCompute is the mean per-process service demand at the reference
	// CPU (default 10 s). MeanFootprintMB is the mean process footprint
	// (default 128 MB).
	MeanCompute     simtime.Duration `json:"mean_compute"`
	MeanFootprintMB int64            `json:"mean_footprint_mb,omitempty"`
	// NodeMemMB is each node's physical memory — what the memory-ushering
	// policy balances against. Default: four balanced shares of the mean
	// footprint (4 × ⌈Procs/Nodes⌉ × MeanFootprintMB).
	NodeMemMB int64 `json:"node_mem_mb,omitempty"`
	// Mix weights the per-process reference shapes. Default: all
	// sequential.
	Mix []MixWeight `json:"mix,omitempty"`

	// Policies names the balancer policies the scenario runs under, by
	// registry name. Empty means every registered policy. The canonical
	// form is sorted, deduplicated and always contains the no-migration
	// baseline the slowdown ratios divide by.
	Policies []string `json:"policies,omitempty"`
	// LoadVectorLen lifts the sampling policies' sample size l (the
	// number of peer entries one balancing decision inspects) out of the
	// built-in constants. Zero keeps each policy's default (load-vector 3,
	// queue-gossip 8); values of Nodes-1 or more mean full knowledge.
	LoadVectorLen int `json:"load_vector_len,omitempty"`
	// Evacuate turns a ChurnNodeCrash into a drain: the crashing node's
	// runnable residents are migrated to the least-loaded reachable nodes
	// before its connectivity dies, with fail-back to the (crashed) source
	// when a freeze-time payload cannot be delivered — juju's
	// model-migration semantics. Without it a crash costs the residents
	// their progress until the node recovers.
	Evacuate bool `json:"evacuate,omitempty"`

	// Network is the per-node link profile of the interconnect (zero
	// value: Fast Ethernet).
	Network netmodel.Profile `json:"network"`
	// Fabric selects the interconnect topology (star, two-tier, flat) and
	// the gossip dissemination parameters of the switched topologies. The
	// zero value is the legacy star with paired daemons, which encodes as
	// no block at all.
	Fabric FabricSpec `json:"fabric,omitzero"`
	// BackgroundLoad is the initial fraction of node-link bandwidth
	// consumed by competing traffic.
	BackgroundLoad float64 `json:"background_load,omitempty"`

	// BalancePeriod is the load balancer's decision interval (default 1 s);
	// CostThreshold its safety factor (default 1.25).
	BalancePeriod simtime.Duration `json:"balance_period"`
	CostThreshold float64          `json:"cost_threshold,omitempty"`

	// Quantum is the processor-sharing quantum (default 50 ms).
	Quantum simtime.Duration `json:"quantum"`
	// MaxSimTime bounds the virtual-time horizon; processes still running
	// at the horizon are reported as unfinished. Default: generous —
	// 4 × Procs × MeanCompute + a minute.
	MaxSimTime simtime.Duration `json:"max_sim_time"`

	// Churn is the scripted disturbance sequence.
	Churn []ChurnEvent `json:"churn,omitempty"`
}

// Canonical resolves every zero "use the default" field, so two Specs that
// run identically fingerprint identically. It is a fixed point.
func (s Spec) Canonical() Spec {
	if s.Nodes <= 0 {
		s.Nodes = 8
	}
	if s.Procs <= 0 {
		s.Procs = 4 * s.Nodes
	}
	if s.SlowScale == 0 {
		s.SlowScale = 0.5
	}
	if s.FastScale == 0 {
		s.FastScale = 2
	}
	if s.MeanInterarrival == 0 {
		s.MeanInterarrival = 250 * simtime.Millisecond
	}
	if s.Skew == 0 {
		s.Skew = 0.8
	}
	if s.Skew < 0 {
		s.Skew = -1 // canonical "uniform" sentinel, a fixed point
	}
	if s.MeanCompute == 0 {
		s.MeanCompute = 10 * simtime.Second
	}
	if s.MeanFootprintMB == 0 {
		s.MeanFootprintMB = 128
	}
	if s.NodeMemMB == 0 {
		perNode := int64((s.Procs + s.Nodes - 1) / s.Nodes)
		s.NodeMemMB = 4 * perNode * s.MeanFootprintMB
	}
	if len(s.Mix) == 0 {
		s.Mix = []MixWeight{{Kind: MixSequential, Weight: 1}}
	}
	s.Policies = canonicalPolicies(s.Policies)
	if len(s.Churn) == 0 {
		s.Churn = nil // an empty script is no script, which the codec omits
	}
	if s.Network.BandwidthBps == 0 {
		s.Network = netmodel.FastEthernet()
	}
	s.Fabric = s.Fabric.Canonical()
	if s.BalancePeriod == 0 {
		s.BalancePeriod = simtime.Second
	}
	if s.CostThreshold == 0 {
		s.CostThreshold = 1.25
	}
	if s.Quantum == 0 {
		s.Quantum = 50 * simtime.Millisecond
	}
	if s.MaxSimTime == 0 {
		s.MaxSimTime = 4*simtime.Duration(s.Procs)*s.MeanCompute + simtime.Minute
	}
	return s
}

// canonicalPolicies resolves the policy set: empty means every registered
// policy; otherwise the names are deduplicated, the no-migration baseline
// is added if missing, and the set is sorted — the registry order every
// report and fingerprint iterates in.
func canonicalPolicies(names []string) []string {
	if len(names) == 0 {
		return sched.Names()
	}
	seen := make(map[string]bool, len(names)+1)
	out := make([]string, 0, len(names)+1)
	for _, n := range append([]string{sched.BaselineName}, names...) {
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate reports the first structural problem of the canonical spec,
// including policy names that resolve to no registered policy.
func (s Spec) Validate() error {
	if err := s.validateShape(); err != nil {
		return err
	}
	if _, err := sched.ByNames(s.Canonical().Policies); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// validateShape checks everything Validate does except the policy-registry
// lookup. Report decoding uses it directly: a saved report may record a
// run under a custom policy the decoding process never registered, and the
// artefact must still be readable.
func (s Spec) validateShape() error {
	s = s.Canonical()
	if s.Nodes < 2 {
		return fmt.Errorf("scenario: need at least 2 nodes, have %d", s.Nodes)
	}
	// Written as the positive condition so NaN fractions fail too: every
	// comparison against NaN is false, which made the old negated form
	// (frac < 0 || ...) wave NaNs through into buildWorkload. The sum also
	// rejects overlapping tiers (slow+fast > 1), where the fast tier would
	// silently truncate and the fingerprint would promise a node mix the
	// run never realises.
	if !(s.SlowFrac >= 0 && s.FastFrac >= 0 && s.SlowFrac+s.FastFrac <= 1) {
		return fmt.Errorf("scenario: node-tier fractions slow=%g fast=%g out of range (want non-negative, slow+fast <= 1)", s.SlowFrac, s.FastFrac)
	}
	// The float checks below keep the same positive form, and finite
	// rejects ±Inf: a NaN or infinite scale, skew, threshold or factor
	// otherwise reaches the model, which indexes with it, orders link
	// deliveries by it or fails to encode the report.
	if !(s.SlowScale > 0 && finite(s.SlowScale) && s.FastScale > 0 && finite(s.FastScale)) {
		return fmt.Errorf("scenario: CPU scales slow=%g fast=%g must be positive and finite", s.SlowScale, s.FastScale)
	}
	if !(s.Skew <= 1) {
		return fmt.Errorf("scenario: skew %g out of range (want at most 1)", s.Skew)
	}
	if s.MeanCompute <= 0 || s.MeanInterarrival <= 0 || s.BalancePeriod <= 0 ||
		s.Quantum <= 0 || s.MaxSimTime <= 0 {
		return fmt.Errorf("scenario: non-positive duration (compute %v, interarrival %v, balance %v, quantum %v, horizon %v)",
			s.MeanCompute, s.MeanInterarrival, s.BalancePeriod, s.Quantum, s.MaxSimTime)
	}
	if s.MeanFootprintMB <= 0 {
		return fmt.Errorf("scenario: non-positive mean footprint %d MB", s.MeanFootprintMB)
	}
	if s.NodeMemMB <= 0 {
		return fmt.Errorf("scenario: non-positive node memory %d MB", s.NodeMemMB)
	}
	if !(s.CostThreshold > 0 && finite(s.CostThreshold)) {
		return fmt.Errorf("scenario: cost threshold %g must be positive and finite", s.CostThreshold)
	}
	if !(s.BackgroundLoad >= 0 && s.BackgroundLoad <= 0.95) {
		return fmt.Errorf("scenario: background load %g out of [0,0.95]", s.BackgroundLoad)
	}
	if s.Network.LatencyOneWay < 0 {
		return fmt.Errorf("scenario: negative network latency %v", s.Network.LatencyOneWay)
	}
	if !(s.Network.BandwidthBps > 0 && finite(s.Network.BandwidthBps)) {
		return fmt.Errorf("scenario: network bandwidth %g B/s must be positive and finite", s.Network.BandwidthBps)
	}
	if err := s.Fabric.Validate(); err != nil {
		return err
	}
	if s.Fabric.Canonical().Topology != fabric.KindStar && s.Nodes > infod.MaxGossipNodes {
		return fmt.Errorf("scenario: %d nodes on a %s fabric, above the gossip plane's %d", s.Nodes, s.Fabric.Topology, infod.MaxGossipNodes)
	}
	if s.LoadVectorLen < 0 || s.LoadVectorLen > 4096 {
		return fmt.Errorf("scenario: load-vector sample size %d out of [0,4096]", s.LoadVectorLen)
	}
	total := 0
	for _, m := range s.Mix {
		if m.Weight < 0 {
			return fmt.Errorf("scenario: negative mix weight for %v", m.Kind)
		}
		if m.Weight > 1<<20 {
			return fmt.Errorf("scenario: mix weight %d for %v above 2^20", m.Weight, m.Kind)
		}
		total += m.Weight
	}
	if total == 0 {
		return fmt.Errorf("scenario: mix weights sum to zero")
	}
	for i, c := range s.Churn {
		if c.At < 0 {
			return fmt.Errorf("scenario: churn[%d] at negative time", i)
		}
		if !finite(c.Factor) {
			return fmt.Errorf("scenario: churn[%d] factor %g not finite", i, c.Factor)
		}
		switch c.Kind {
		case ChurnSlowNode:
			if c.Node < 0 || c.Node >= s.Nodes {
				return fmt.Errorf("scenario: churn[%d] slow-node targets node %d of %d", i, c.Node, s.Nodes)
			}
			if c.Factor <= 0 {
				return fmt.Errorf("scenario: churn[%d] slow-node factor %g must be positive", i, c.Factor)
			}
		case ChurnBurst:
			if c.Node < 0 || c.Node >= s.Nodes {
				return fmt.Errorf("scenario: churn[%d] burst targets node %d of %d", i, c.Node, s.Nodes)
			}
			if c.Procs <= 0 {
				return fmt.Errorf("scenario: churn[%d] burst of %d processes", i, c.Procs)
			}
		case ChurnNetLoad:
			// On the star, node 0 is the hub and has no link of its own;
			// switched fabrics give every node an edge link.
			// Any node below −1 would run as −1 but fingerprint apart.
			if c.Node < -1 || c.Node >= s.Nodes || (c.Node == 0 && s.Fabric.IsDefault()) {
				return fmt.Errorf("scenario: churn[%d] net-load targets node %d of %d (0 is the hub; use -1 for all spokes)", i, c.Node, s.Nodes)
			}
			if c.Factor < 0 || c.Factor > 0.95 {
				return fmt.Errorf("scenario: churn[%d] net-load %g out of [0,0.95]", i, c.Factor)
			}
		case ChurnBalloon:
			if c.Node < 0 || c.Node >= s.Nodes {
				return fmt.Errorf("scenario: churn[%d] balloon targets node %d of %d", i, c.Node, s.Nodes)
			}
			if c.Factor <= 0 {
				return fmt.Errorf("scenario: churn[%d] balloon factor %g must be positive", i, c.Factor)
			}
		case ChurnNodeCrash, ChurnNodeRecover:
			// The failure plane models link state and reachability, which the
			// legacy hub-spoke star does not have.
			if s.Fabric.IsDefault() {
				return fmt.Errorf("scenario: churn[%d] %s requires a switched fabric (two-tier or flat)", i, c.Kind)
			}
			if c.Node < 0 || c.Node >= s.Nodes {
				return fmt.Errorf("scenario: churn[%d] %s targets node %d of %d", i, c.Kind, c.Node, s.Nodes)
			}
		case ChurnLinkDown, ChurnLinkUp:
			if s.Fabric.IsDefault() {
				return fmt.Errorf("scenario: churn[%d] %s requires a switched fabric (two-tier or flat)", i, c.Kind)
			}
			if c.Node >= s.Nodes {
				return fmt.Errorf("scenario: churn[%d] %s targets node %d of %d", i, c.Kind, c.Node, s.Nodes)
			}
			if c.Node < 0 {
				racks := 0
				if s.Fabric.Topology == fabric.KindTwoTier && s.Fabric.RackSize > 0 {
					racks = (s.Nodes + s.Fabric.RackSize - 1) / s.Fabric.RackSize
				}
				if r := -c.Node - 1; r >= racks {
					return fmt.Errorf("scenario: churn[%d] %s targets uplink of rack %d of %d", i, c.Kind, r, racks)
				}
			}
		default:
			return fmt.Errorf("scenario: churn[%d] unknown kind %v", i, c.Kind)
		}
	}
	// The gossip plane carries a node's resident memory, and its queue
	// length, in 32 bits. Bound both by every process, bursts included,
	// landing on one node at the largest drawn footprint (under 1.5× the
	// mean), grown by every balloon factor above 1. Every footprint is at
	// least 1 MB, so the queue length is below the memory bound.
	procs, growth := float64(s.Procs), 1.0
	for _, c := range s.Churn {
		switch {
		case c.Kind == ChurnBurst:
			procs += float64(c.Procs)
		case c.Kind == ChurnBalloon && c.Factor > 1:
			growth *= c.Factor
		}
	}
	if mem := procs * 1.5 * float64(s.MeanFootprintMB) * growth; !(mem <= math.MaxInt32) {
		return fmt.Errorf("scenario: one node's resident memory could reach %.4g MB (%g processes × 1.5 × %d MB mean footprint × %g balloon growth), above the %d MB the gossip plane carries",
			mem, procs, s.MeanFootprintMB, growth, math.MaxInt32)
	}
	if s.Evacuate {
		crash := false
		for _, c := range s.Churn {
			crash = crash || c.Kind == ChurnNodeCrash
		}
		if !crash {
			return fmt.Errorf("scenario: evacuate set without any node-crash churn")
		}
	}
	return nil
}

// finite reports whether x is a real number: false for NaN and ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// HasFailures reports whether the spec schedules failure-plane churn
// (node crashes/recoveries, link transitions) — the condition under which
// reports carry sojourn-latency percentiles and failure counters.
func (s Spec) HasFailures() bool {
	for _, c := range s.Churn {
		if c.Kind.failure() {
			return true
		}
	}
	return false
}

// Fingerprint returns the canonical cache/seed key: a pure function of
// every behaviour-bearing field. Two specs with equal fingerprints run the
// same scenario and share one campaign cache cell.
func (s Spec) Fingerprint() string {
	s = s.Canonical()
	var b strings.Builder
	fmt.Fprintf(&b, "name=%s|nodes=%d|procs=%d|tiers=%g@%g/%g@%g",
		s.Name, s.Nodes, s.Procs, s.SlowFrac, s.SlowScale, s.FastFrac, s.FastScale)
	fmt.Fprintf(&b, "|arrival=%s/%d|place=%s/%g", s.Arrival, int64(s.MeanInterarrival), s.Placement, s.Skew)
	fmt.Fprintf(&b, "|compute=%d|fp=%d|mem=%d", int64(s.MeanCompute), s.MeanFootprintMB, s.NodeMemMB)
	// The policy set is part of the job key: campaigns cache and seed per
	// (spec, policies), so adding a policy re-runs the cell.
	fmt.Fprintf(&b, "|pol=%s", strings.Join(s.Policies, ","))
	b.WriteString("|mix=")
	for i, m := range s.Mix {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%d", m.Kind, m.Weight)
	}
	fmt.Fprintf(&b, "|net=%s/%d/%g/%g", s.Network.Name, int64(s.Network.LatencyOneWay), s.Network.BandwidthBps, s.BackgroundLoad)
	fmt.Fprintf(&b, "|bal=%d/%g|q=%d|horizon=%d", int64(s.BalancePeriod), s.CostThreshold, int64(s.Quantum), int64(s.MaxSimTime))
	b.WriteString("|churn=")
	for i, c := range s.Churn {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%d:n%d/f%g/p%d", c.Kind, int64(c.At), c.Node, c.Factor, c.Procs)
	}
	// The fabric and sample-size segments are appended only when they
	// leave their defaults, so pre-fabric specs keep their exact job keys
	// (and therefore their campaign-derived seeds and cache cells).
	if !s.Fabric.IsDefault() {
		fmt.Fprintf(&b, "|fabric=%s", s.Fabric)
	}
	if s.LoadVectorLen > 0 {
		fmt.Fprintf(&b, "|l=%d", s.LoadVectorLen)
	}
	if s.Evacuate {
		b.WriteString("|evac=1")
	}
	return b.String()
}

// String describes the spec in progress reports and errors.
func (s Spec) String() string {
	s = s.Canonical()
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	return fmt.Sprintf("%s(%dn/%dp)", name, s.Nodes, s.Procs)
}

// Presets — the named scenarios of cmd/ampom-cluster.

// PresetNames lists the built-in scenarios in presentation order.
func PresetNames() []string {
	return []string{"hpc-farm", "web-churn", "hetero-burst", "mpi-ranks", "rack-farm", "rack-farm-failures", "gossip-mesh", "mega-farm", "giga-farm"}
}

// Preset returns a named built-in scenario. The names model the cluster
// shapes the related openMosix literature runs: an HPC farm digesting a
// batch burst, a churning web/interactive mix, a heterogeneous cluster hit
// by an arrival burst, and a rank-per-CPU MPI launch on a cluster with a
// few slow nodes.
func Preset(name string) (Spec, error) {
	switch strings.ToLower(name) {
	case "hpc-farm":
		// The acceptance scenario: 64 nodes, 256 processes, a skewed batch
		// landing mostly on the entry node — the classic openMosix farm.
		return Spec{
			Name:            "hpc-farm",
			Nodes:           64,
			Procs:           256,
			Arrival:         ArrivalBatch,
			Placement:       PlaceSkewed,
			Skew:            0.35,
			MeanCompute:     6 * simtime.Second,
			MeanFootprintMB: 96,
			Mix: []MixWeight{
				{Kind: MixSequential, Weight: 3},
				{Kind: MixBlocked, Weight: 1},
			},
		}.Canonical(), nil
	case "web-churn":
		// Interactive/web processes trickling in with small working sets,
		// disturbed by a slow node, background traffic and a late burst —
		// on a tc-shaped 50 Mb/s commodity tier rather than the testbed's
		// Fast Ethernet.
		return Spec{
			Name:             "web-churn",
			Nodes:            16,
			Procs:            96,
			Arrival:          ArrivalPoisson,
			MeanInterarrival: 150 * simtime.Millisecond,
			Placement:        PlaceSkewed,
			Skew:             0.6,
			MeanCompute:      4 * simtime.Second,
			MeanFootprintMB:  64,
			Network:          netmodel.Shape(netmodel.FastEthernet(), 50e6, 500*simtime.Microsecond),
			Mix: []MixWeight{
				{Kind: MixSmallWS, Weight: 3},
				{Kind: MixRandom, Weight: 1},
			},
			Churn: []ChurnEvent{
				{At: 10 * simtime.Second, Kind: ChurnSlowNode, Node: 1, Factor: 0.5},
				{At: 20 * simtime.Second, Kind: ChurnNetLoad, Node: -1, Factor: 0.5},
				{At: 30 * simtime.Second, Kind: ChurnBurst, Node: 0, Procs: 24},
			},
		}.Canonical(), nil
	case "hetero-burst":
		// A mixed-generation cluster (a quarter slow, a quarter fast)
		// absorbing a second burst mid-run.
		return Spec{
			Name:            "hetero-burst",
			Nodes:           32,
			Procs:           128,
			SlowFrac:        0.25,
			FastFrac:        0.25,
			Arrival:         ArrivalBatch,
			Placement:       PlaceSkewed,
			Skew:            0.5,
			MeanCompute:     6 * simtime.Second,
			MeanFootprintMB: 128,
			Mix: []MixWeight{
				{Kind: MixSequential, Weight: 1},
				{Kind: MixBlocked, Weight: 1},
				{Kind: MixRandom, Weight: 1},
			},
			Churn: []ChurnEvent{
				{At: 15 * simtime.Second, Kind: ChurnBurst, Node: 0, Procs: 32},
			},
		}.Canonical(), nil
	case "mpi-ranks":
		// A rank-per-CPU MPI launch: round-robin placement is balanced by
		// construction, but slow nodes strand their ranks — migration is
		// what rescues the stragglers (cf. Open-MPI over MOSIX).
		return Spec{
			Name:            "mpi-ranks",
			Nodes:           24,
			Procs:           96,
			SlowFrac:        0.25,
			SlowScale:       0.5,
			Arrival:         ArrivalBatch,
			Placement:       PlaceRoundRobin,
			MeanCompute:     8 * simtime.Second,
			MeanFootprintMB: 160,
			CostThreshold:   1.1,
			Mix: []MixWeight{
				{Kind: MixBlocked, Weight: 2},
				{Kind: MixSequential, Weight: 1},
			},
			Churn: []ChurnEvent{
				{At: 12 * simtime.Second, Kind: ChurnSlowNode, Node: 2, Factor: 0.6},
			},
		}.Canonical(), nil
	case "rack-farm":
		// The switched-fabric acceptance scenario: a 512-node, 16-rack farm
		// launching 2048 ranks round-robin. A fifth of the machines are a
		// generation older, so migration has to rescue stragglers across
		// racks — through oversubscribed uplinks, with gossip-aged load
		// information (the multi-rack farms of the openMosix HPC-farm
		// literature, an order of magnitude past the hpc-farm preset).
		return Spec{
			Name:            "rack-farm",
			Nodes:           512,
			Procs:           2048,
			SlowFrac:        0.2,
			SlowScale:       0.5,
			Arrival:         ArrivalBatch,
			Placement:       PlaceRoundRobin,
			MeanCompute:     5 * simtime.Second,
			MeanFootprintMB: 64,
			CostThreshold:   1.1,
			Fabric: FabricSpec{
				Topology: fabric.KindTwoTier,
				RackSize: 32,
				Oversub:  4,
			},
			Mix: []MixWeight{
				{Kind: MixSequential, Weight: 3},
				{Kind: MixBlocked, Weight: 1},
			},
		}.Canonical(), nil
	case "rack-farm-failures":
		// The failure-realism acceptance scenario: the rack-farm shape with
		// things actually breaking. Two nodes crash back to back — the
		// second while the first one's evacuation payloads are still in
		// flight, so some migrants demonstrably fail back to their (dead)
		// source and strand until recovery — a rack uplink flaps while
		// stale gossip still routes migrations through it, and both nodes
		// come back before the batch drains. Evacuation is on: a crash
		// drains its runnable residents instead of discarding their
		// progress. Low node indices keep the script valid when the preset
		// is shrunk with -nodes.
		spec, err := Preset("rack-farm")
		if err != nil {
			return Spec{}, err
		}
		spec.Name = "rack-farm-failures"
		spec.Evacuate = true
		spec.Churn = []ChurnEvent{
			{At: 3 * simtime.Second, Kind: ChurnNodeCrash, Node: 5},
			{At: 3*simtime.Second + 40*simtime.Millisecond, Kind: ChurnNodeCrash, Node: 9},
			{At: 5 * simtime.Second, Kind: ChurnLinkDown, Node: -2},
			{At: 8 * simtime.Second, Kind: ChurnLinkUp, Node: -2},
			{At: 10 * simtime.Second, Kind: ChurnNodeRecover, Node: 9},
			{At: 12 * simtime.Second, Kind: ChurnNodeRecover, Node: 5},
		}
		return spec.Canonical(), nil
	case "gossip-mesh":
		// A flat full-bisection fabric whose monitoring is pure gossip: a
		// skewed burst lands on a 96-node mesh and the balancer policies
		// must spread it while their picture of far nodes ages — the
		// decentralised MOSIX dissemination regime, with no hub at all.
		return Spec{
			Name:            "gossip-mesh",
			Nodes:           96,
			Procs:           384,
			Arrival:         ArrivalBatch,
			Placement:       PlaceSkewed,
			Skew:            0.3,
			MeanCompute:     5 * simtime.Second,
			MeanFootprintMB: 96,
			Fabric: FabricSpec{
				Topology:     fabric.KindFlat,
				GossipFanout: 3,
			},
			Mix: []MixWeight{
				{Kind: MixSequential, Weight: 2},
				{Kind: MixRandom, Weight: 1},
			},
		}.Canonical(), nil
	case "mega-farm":
		// The incremental-view acceptance scenario: 4096 nodes in 64 racks
		// of 64, 16384 ranks dealt round-robin — an order of magnitude past
		// rack-farm, the multi-thousand-node farm scale the openMosix
		// HPC-farm literature aims at. A fifth of the machines are a
		// generation older, the core is heavily oversubscribed, and the
		// gossip period is stretched to 4 s, so a 4096-node farm gossips at
		// half the small-farm cadence — and balancer policies pay for it in
		// staleness, deciding from the bounded window of the farm that has
		// reached them. Only the live, dirty-node-tracked cluster view keeps
		// balance rounds at this scale within the event budget.
		return Spec{
			Name:            "mega-farm",
			Nodes:           4096,
			Procs:           16384,
			SlowFrac:        0.2,
			SlowScale:       0.5,
			Arrival:         ArrivalBatch,
			Placement:       PlaceRoundRobin,
			MeanCompute:     4 * simtime.Second,
			MeanFootprintMB: 48,
			CostThreshold:   1.1,
			Fabric: FabricSpec{
				Topology:     fabric.KindTwoTier,
				RackSize:     64,
				Oversub:      8,
				GossipPeriod: 4 * simtime.Second,
			},
			Mix: []MixWeight{
				{Kind: MixSequential, Weight: 3},
				{Kind: MixBlocked, Weight: 1},
			},
		}.Canonical(), nil
	case "giga-farm":
		// The bounded-gossip acceptance scenario: 16384 nodes in 128 racks
		// of 128, 65536 ranks dealt round-robin — a further order of
		// magnitude past mega-farm, only reachable because dissemination is
		// windowed: every push carries the l freshest entries instead of a
		// full-membership vector, and every daemon stores only the origins
		// it has recently heard (O(n·l) plane memory, not O(n²) — a dense
		// 16k×16k entry matrix alone would be tens of gigabytes). Slow pull
		// rounds keep the partial views converging while balancer policies
		// decide from whatever window of the farm has reached them.
		return Spec{
			Name:            "giga-farm",
			Nodes:           16384,
			Procs:           65536,
			SlowFrac:        0.2,
			SlowScale:       0.5,
			Arrival:         ArrivalBatch,
			Placement:       PlaceRoundRobin,
			MeanCompute:     4 * simtime.Second,
			MeanFootprintMB: 32,
			CostThreshold:   1.1,
			Fabric: FabricSpec{
				Topology:     fabric.KindTwoTier,
				RackSize:     128,
				Oversub:      16,
				GossipPeriod: 4 * simtime.Second,
			},
			Mix: []MixWeight{
				{Kind: MixSequential, Weight: 3},
				{Kind: MixBlocked, Weight: 1},
			},
		}.Canonical(), nil
	default:
		return Spec{}, fmt.Errorf("scenario: unknown preset %q (want %s)", name, strings.Join(PresetNames(), ", "))
	}
}

// Presets returns every built-in scenario.
func Presets() []Spec {
	names := PresetNames()
	out := make([]Spec, len(names))
	for i, n := range names {
		out[i], _ = Preset(n)
	}
	return out
}

// sortedMix returns the mix with zero-weight entries dropped, in kind
// order — the canonical form used when drawing processes.
func (s Spec) sortedMix() []MixWeight {
	mix := make([]MixWeight, 0, len(s.Mix))
	for _, m := range s.Mix {
		if m.Weight > 0 {
			mix = append(mix, m)
		}
	}
	sort.Slice(mix, func(i, j int) bool { return mix[i].Kind < mix[j].Kind })
	return mix
}

// footprintPages converts a footprint in MB to pages.
func footprintPages(mb int64) int64 { return mb * 1e6 / memory.PageSize }

// drawMix picks a mix kind by weight.
func drawMix(mix []MixWeight, rng *prng.Source) MixKind {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	n := rng.Intn(total)
	for _, m := range mix {
		n -= m.Weight
		if n < 0 {
			return m.Kind
		}
	}
	return mix[len(mix)-1].Kind
}
