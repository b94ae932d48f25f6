// Package cluster models openMosix cluster nodes and process control
// blocks: each node owns a CPU (expressed as a speed scale relative to the
// paper's 2 GHz Pentium 4), a NIC, and a payload dispatcher that routes
// arriving messages to the protocol handlers registered on the node
// (remote paging, monitoring daemon, migration control).
package cluster

import (
	"fmt"

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
	n.NIC = netmodel.NewNIC(name, n.dispatch)
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

// Deliver routes an already-received payload through the node's handler
// chain. The fabric routing layer uses it to dispatch the inner payload of
// an envelope after the NIC accounting of the final hop has happened;
// unhandled payloads panic exactly as NIC-delivered ones do.
func (n *Node) Deliver(payload any) { n.dispatch(netmodel.Message{Payload: payload}) }

// Scale converts reference-CPU compute time to this node's wall time.
func (n *Node) Scale(d simtime.Duration) simtime.Duration {
	if n.CPUScale == 1 {
		return d
	}
	return simtime.Duration(float64(d) / n.CPUScale)
}

// ProcState is a process's lifecycle state.
type ProcState uint8

// Process lifecycle states.
const (
	ProcRunning ProcState = iota
	ProcFrozen            // suspended for migration
	ProcDeputy            // origin-side stub serving remote paging / syscalls
	ProcDone
)

// String names the state.
func (s ProcState) String() string {
	switch s {
	case ProcRunning:
		return "running"
	case ProcFrozen:
		return "frozen"
	case ProcDeputy:
		return "deputy"
	case ProcDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// PCB is a minimal process control block: identity, placement and the
// registers/metadata openMosix captures and restores around migration. The
// simulator does not execute real instructions, but carrying the PCB keeps
// migration bookkeeping (and its costs) faithful.
type PCB struct {
	PID   int
	Name  string
	State ProcState

	// Home is the unique home node (openMosix's UHN); Current is where the
	// process executes now.
	Home, Current *Node

	// Registers stands in for the architectural state captured at freeze
	// time; its size contributes to the migration payload.
	Registers [64]uint64
}

// RegisterBytes is the wire size of the captured architectural state plus
// openMosix process metadata.
const RegisterBytes = 2048

// NewPCB returns a running PCB homed at node home.
func NewPCB(pid int, name string, home *Node) *PCB {
	return &PCB{PID: pid, Name: name, State: ProcRunning, Home: home, Current: home}
}
