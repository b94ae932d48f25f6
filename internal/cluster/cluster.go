// Package cluster models openMosix cluster nodes: each node owns a CPU
// (expressed as a speed scale relative to the paper's 2 GHz Pentium 4), a
// NIC, and a payload dispatcher that routes arriving messages to the
// protocol handlers registered on the node (remote paging, monitoring
// daemon, migration control).
package cluster

import (
	"fmt"

	"ampom/internal/memory"
	"ampom/internal/netmodel"
	"ampom/internal/sim"
	"ampom/internal/simtime"
)

// Node is one cluster machine.
type Node struct {
	Name string
	// CPUScale expresses the node's CPU speed relative to the reference
	// 2 GHz P4: compute that takes d on the reference takes d/CPUScale
	// here.
	CPUScale float64

	Eng *sim.Engine
	NIC *netmodel.NIC

	handlers []func(payload any) bool
}

// NewNode creates a node with a NIC whose deliveries are routed through the
// node's dispatcher.
func NewNode(eng *sim.Engine, name string, cpuScale float64) *Node {
	if cpuScale <= 0 {
		cpuScale = 1
	}
	n := &Node{Name: name, CPUScale: cpuScale, Eng: eng}
	n.NIC = netmodel.NewNIC(n.dispatch)
	return n
}

// Handle registers a payload handler. Handlers are tried in registration
// order until one returns true; unhandled payloads panic, because a model
// delivering messages nobody consumes is mis-wired.
func (n *Node) Handle(h func(payload any) bool) { n.handlers = append(n.handlers, h) }

func (n *Node) dispatch(m netmodel.Message) {
	for _, h := range n.handlers {
		if h(m.Payload) {
			return
		}
	}
	panic(fmt.Sprintf("cluster: node %q received unhandled payload %T", n.Name, m.Payload))
}

// Scale converts reference-CPU compute time to this node's wall time.
func (n *Node) Scale(d simtime.Duration) simtime.Duration { return ScaleCPU(d, n.CPUScale) }

// ScaleCPU converts reference-CPU compute time to wall time on a CPU of
// relative speed cpuScale.
func ScaleCPU(d simtime.Duration, cpuScale float64) simtime.Duration {
	if cpuScale == 1 {
		return d
	}
	return simtime.Duration(float64(d) / cpuScale)
}

// The migration protocol's calibration on the paper's Gideon 300 testbed,
// pinned by the §5.2 freeze anchors (575 MB DGEMM: 53.9 s openMosix, 0.6 s
// AMPoM, 0.07 s NoPrefetch). Every layer that prices a migration — the
// packet-level executor, the balancer cost models and the scenario
// engine's restore — reads them from here.
const (
	// RegisterBytes is the wire size of the captured architectural state
	// plus openMosix process metadata.
	RegisterBytes = 2048
	// MigrationBase is the fixed openMosix migration protocol cost
	// (negotiation, PCB capture/restore, socket setup).
	MigrationBase = 65 * simtime.Millisecond
	// PageFrameBytes is one page on the wire with its 64 B per-page
	// framing, as freeze-time bulk transfers ship it.
	PageFrameBytes = memory.PageSize + 64
	// MPTEntryCPU is the destination-side cost of installing one MPT
	// entry (AMPoM's freeze is dominated by this for large processes).
	MPTEntryCPU = 3 * simtime.Microsecond
)
