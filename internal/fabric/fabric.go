// Package fabric models the cluster interconnect topology: how nodes,
// switches and links are wired, how payloads are routed hop by hop through
// the netmodel queues along the path, and how the monitoring plane
// (oM_infoD) disseminates load information across it.
//
// Three topologies are built in:
//
//   - Star: the historical single-hub interconnect — one spoke link per
//     node, the hub node relaying spoke-to-spoke payloads, and a paired
//     infod daemon on each end of every spoke. It is byte-compatible with
//     the scenario engine's pre-fabric wiring and remains the default.
//   - TwoTier: a switched multi-rack fabric — per-rack leaf switches,
//     one core spine, configurable rack size and core oversubscription.
//     Cross-rack traffic queues on the shared uplinks, so contention is
//     modelled per link along the path (the "OpenMosix approach to build
//     scalable HPC farms" shape).
//   - Flat: a full-bisection single-switch fabric — every pair of nodes
//     two hops apart with no shared bottleneck beyond the endpoints.
//
// Switched topologies replace the paired hub-spoke infod exchange with
// decentralised gossip (infod.Gossip): each node pushes a bounded window —
// the l freshest entries of its load vector — to a few distinct random
// peers per period, runs slower anti-entropy pull rounds to heal
// partitions and late joiners, entries age as they propagate, and the
// t0/td estimates AMPoM's Equation 3 consumes are derived per origin from
// gossip-path timing — so balancer policies see staleness that grows with
// topology distance.
//
// Determinism is inherited from the engine: construction, routing and
// gossip draw only from PRNG streams derived from the caller's seed, so a
// fabric is a pure function of (Config, node set).
package fabric

import (
	"fmt"
	"strings"

	"ampom/internal/cluster"
	"ampom/internal/core"
	"ampom/internal/infod"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// Kind names an interconnect topology.
type Kind uint8

// The built-in topologies.
const (
	// KindStar is the legacy single-hub star: node 0 relays spoke-to-spoke
	// traffic and monitoring runs as paired per-spoke daemons.
	KindStar Kind = iota
	// KindTwoTier is a switched two-tier fabric: per-rack leaf switches
	// under an oversubscribed core spine, with gossip-based monitoring.
	KindTwoTier
	// KindFlat is a full-bisection single-switch fabric with gossip-based
	// monitoring.
	KindFlat
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindStar:
		return "star"
	case KindTwoTier:
		return "two-tier"
	case KindFlat:
		return "flat"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MarshalText renders the kind as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a topology name as ParseKind does.
func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = ParseKind(string(text))
	return err
}

// Kinds lists the built-in topologies in declaration order.
func Kinds() []Kind { return []Kind{KindStar, KindTwoTier, KindFlat} }

// KindNames lists the topology names Kinds covers.
func KindNames() []string {
	ks := Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = k.String()
	}
	return out
}

// ParseKind resolves a topology name; the empty string is the star default.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if s == k.String() {
			return k, nil
		}
	}
	if s == "" {
		return KindStar, nil
	}
	return 0, fmt.Errorf("fabric: unknown topology %q (want %s)", s, strings.Join(KindNames(), ", "))
}

// Config describes the interconnect of one simulation run. The gossip
// fields must be positive on switched topologies, and RackSize and Oversub
// on the two-tier (scenario's FabricSpec.Canonical resolves them from the
// Default* constants); the star ignores them.
type Config struct {
	// Kind selects the topology.
	Kind Kind
	// RackSize is the number of nodes under one leaf switch (two-tier).
	RackSize int
	// Oversub is the core oversubscription ratio (two-tier): a rack's
	// uplink carries RackSize/Oversub node-links' worth of bandwidth.
	Oversub float64
	// GossipFanout is how many random peers each daemon pushes its load
	// vector to per period (switched topologies).
	GossipFanout int
	// GossipPeriod is the gossip push period (switched topologies).
	GossipPeriod simtime.Duration
	// GossipWindow is l, the bounded number of entries (own sample
	// included) one gossip push or pull response carries (switched
	// topologies).
	GossipWindow int
	// Network is the per-node link profile; two-tier uplinks scale its
	// bandwidth by RackSize/Oversub.
	Network netmodel.Profile
	// BackgroundLoad is the initial background-load fraction applied to
	// every node-facing link.
	BackgroundLoad float64
	// Seed drives the daemon jitter and gossip peer-selection streams.
	Seed uint64
	// Sharding, when non-nil, spreads the fabric across per-shard engines
	// for conservative parallel runs (two-tier only). Nil builds the
	// sequential fabric on eng.
	Sharding *Sharding
}

// Sharding wires a two-tier fabric for sharded execution: each rack's
// links live on the engine of the shard owning its nodes, and anything
// crossing a shard boundary is staged through the group's barriers.
type Sharding struct {
	// ShardOf maps node → shard. All nodes of a rack must share a shard.
	ShardOf []int
	// Engines are the shard engines, indexed by shard.
	Engines []*sim.Engine
	// Group coordinates the windows; link deliveries that cross shards are
	// staged through it.
	Group *sim.ShardGroup
	// GlobalPayload classifies payloads whose node-side delivery must run
	// on the group's global engine (migrations: the restore path touches
	// both endpoint daemons). Nil treats every payload as shard-local.
	GlobalPayload func(payload any) bool
}

// The shape and gossip defaults — the single source scenario's FabricSpec
// canonicalisation resolves against, so fingerprints and the built fabric
// can never disagree about what a zero field means.
const (
	// DefaultRackSize is the two-tier fabric's nodes-per-leaf default.
	DefaultRackSize = 16
	// DefaultOversub is the two-tier core oversubscription default.
	DefaultOversub = 4
	// DefaultGossipFanout is the per-period gossip push fanout default.
	DefaultGossipFanout = 2
	// DefaultGossipPeriod is the gossip push period default — the paired
	// daemons' historical update period.
	DefaultGossipPeriod = 2 * simtime.Second
	// DefaultGossipWindow is the bounded partial-view size default — the
	// l freshest entries one push carries.
	DefaultGossipWindow = 32
)

// TierStats summarises one tier of the interconnect after (or during) a
// run: how many links it has, their aggregate capacity, and the payload
// bytes carried across them (every hop counts).
type TierStats struct {
	// Name labels the tier ("edge", "core", "star").
	Name string
	// Links is the number of physical links in the tier.
	Links int
	// CapacityBps is the aggregate capacity across the tier's links in
	// bytes per second.
	CapacityBps float64
	// Bytes is the total payload bytes carried over the tier's links.
	Bytes int64
}

// Interconnect is a built, live interconnect serving one simulation run:
// it owns the links (and switches), routes payloads between nodes, and
// runs the monitoring plane the balancer's network estimates come from.
type Interconnect interface {
	// Kind reports the topology.
	Kind() Kind
	// Send routes m from node src to node dst along the topology path.
	// Delivery is network-paced per hop (store-and-forward through the
	// netmodel queues); the payload is dispatched to dst's handler chain
	// when the final hop lands.
	Send(src, dst int, m netmodel.Message)
	// ClusterBandwidth is the monitoring plane's conservative estimate of
	// the bandwidth available to a migration whose endpoints are not yet
	// known — what balancer policies decide with.
	ClusterBandwidth() float64
	// PathBandwidth estimates the bandwidth available on the src→dst path.
	PathBandwidth(src, dst int) float64
	// PathEstimates assembles the Eq. 3 inputs (daemon-level RTT, per-page
	// transfer time) for a migration crossing the src→dst path.
	PathEstimates(src, dst int) core.Estimates
	// MeanRTT is the mean daemon-level round-trip (dissemination delay)
	// estimate across the cluster at the current instant.
	MeanRTT() simtime.Duration
	// SetBackgroundLoad sets the background-load fraction of node's
	// node-facing link (node < 0: every node-facing link).
	SetBackgroundLoad(node int, frac float64)
	// SetLinkState marks one link up or down: node >= 0 addresses node's
	// edge link, node = -(r+1) rack r's core uplink (two-tier only). A
	// down link refuses new traffic at the switch — payloads reaching the
	// hop are dropped — while messages already serialised onto a hop keep
	// flowing; gossip silence then ages the unreachable nodes to Unknown.
	// The star has no link state and panics (spec validation rejects
	// failure events on it).
	SetLinkState(node int, up bool)
	// PathUp reports whether every link on the src→dst path is currently
	// up — the admission check a migration's freeze-time send performs
	// before committing the payload to the wire.
	PathUp(src, dst int) bool
	// DestReachable reports whether the remainder of a src→dst path is up
	// for a payload already past its source edge link: the destination
	// edge plus, cross-rack on the two-tier, both core uplinks. The
	// migration layer re-verifies in-flight payloads against it at every
	// topology transition and fails unroutable migrants back to their
	// sources.
	DestReachable(src, dst int) bool
	// Gossip returns node i's gossip daemon, or nil on topologies that run
	// the legacy paired-daemon monitoring (the star).
	Gossip(i int) *infod.Gossip
	// TierStats reports per-tier link counts, capacity and carried bytes.
	TierStats() []TierStats
}

// envelope wraps a payload the star routes: its destination node and
// the original message. The hub forwards it; the destination node
// unwraps it and dispatches the inner payload. The star routes only
// migrations this way, so it allocates one per send; the switched
// fabrics route in reused transit records instead.
type envelope struct {
	dst   int
	inner netmodel.Message
}

// Build constructs the configured interconnect over nodes on eng and
// starts its monitoring plane. The node slice is the cluster, indexed by
// node id; nodes must already exist (their handler chains gain the
// fabric's routing handlers). A switched fabric panics on a non-positive
// field its topology uses.
func Build(eng *sim.Engine, nodes []*cluster.Node, cfg Config) Interconnect {
	switch cfg.Kind {
	case KindTwoTier, KindFlat:
		if cfg.GossipFanout <= 0 || cfg.GossipPeriod <= 0 || cfg.GossipWindow <= 0 ||
			cfg.Kind == KindTwoTier && (cfg.RackSize <= 0 || cfg.Oversub <= 0) {
			panic(fmt.Sprintf("fabric: non-positive %s shape or gossip field in %+v", cfg.Kind, cfg))
		}
		return buildSwitched(eng, nodes, cfg)
	default:
		return buildStar(eng, nodes, cfg)
	}
}
