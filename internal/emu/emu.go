// Package emu is a live, userland emulation of the paper's lightweight
// process migration: real nodes listening on real TCP sockets, hosting
// processes whose memory is real 4 KiB byte pages, migrating by shipping
// the PCB, the three currently accessed pages and the master page table,
// and remote-paging the rest from the origin on demand — with the same
// AMPoM prefetcher (internal/core) deciding the dependent zone from
// measured round-trip times.
//
// The discrete-event simulator (internal/migrate) is what reproduces the
// paper's numbers; this package demonstrates the protocol end to end
// outside simulated time, and its tests verify that migration preserves
// memory contents bit-for-bit.
package emu

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"ampom/internal/core"
)

// PageSize is the emulated page size in bytes.
const PageSize = 4096

// msgType discriminates wire messages.
type msgType uint8

const (
	msgMigrate  msgType = iota + 1 // origin → destination: freeze payload
	msgResume                      // origin → destination: start executing
	msgPageReq                     // migrant → origin deputy
	msgPageResp                    // origin deputy → migrant
	msgPing                        // RTT probe
	msgPong
	msgDone // destination → origin: process finished (checksum piggybacked)
)

// wire is the single message envelope exchanged between nodes.
type wire struct {
	Type msgType

	// Migration payload.
	PID        int
	TotalPages int
	ProgramPos int
	Carried    map[int][]byte // the three freeze-time pages
	Program    []Op
	Seed       uint64

	// Resume payload.
	OriginAddr  string
	Prefetch    bool
	PrefetchCfg core.Config

	// Paging payload.
	Pages  []int  // requested page numbers (demand first)
	Page   int    // served page number
	Data   []byte // served page data
	Demand bool

	// Ping payload.
	Token uint64

	// Done payload.
	Checksum uint64
}

// Op is one instruction of an emulated process's program: touch page Page;
// if Write, mutate it with Val, otherwise fold it into the running
// checksum.
type Op struct {
	Page  int
	Write bool
	Val   byte
}

// SequentialProgram returns a program sweeping all pages in order `passes`
// times, writing on the first pass.
func SequentialProgram(pages, passes int) []Op {
	var ops []Op
	for p := 0; p < passes; p++ {
		for i := 0; i < pages; i++ {
			ops = append(ops, Op{Page: i, Write: p == 0, Val: byte(i + p)})
		}
	}
	return ops
}

// StridedProgram returns a program touching pages with the given stride
// pattern, wrapping around the footprint.
func StridedProgram(pages, count, stride int) []Op {
	var ops []Op
	p := 0
	for i := 0; i < count; i++ {
		ops = append(ops, Op{Page: p, Write: i%3 == 0, Val: byte(i)})
		p = (p + stride) % pages
	}
	return ops
}

// Node is one emulated cluster machine: a TCP listener hosting processes
// and serving deputy page requests for processes that migrated away.
type Node struct {
	name string
	ln   net.Listener

	mu    sync.Mutex
	procs map[int]*Proc

	wg sync.WaitGroup
}

// Listen starts a node on addr (use "127.0.0.1:0" for tests).
func Listen(name, addr string) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: node %s: %w", name, err)
	}
	n := &Node{name: name, ln: ln, procs: make(map[int]*Proc)}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Close stops the listener and waits for connection handlers to drain.
func (n *Node) Close() error {
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serve(conn)
		}()
	}
}

// serve handles one inbound connection until EOF.
func (n *Node) serve(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var m wire
		if err := dec.Decode(&m); err != nil {
			return
		}
		switch m.Type {
		case msgPing:
			if enc.Encode(&wire{Type: msgPong, Token: m.Token}) != nil {
				return
			}
		case msgMigrate:
			n.acceptMigration(&m)
			if enc.Encode(&wire{Type: msgDone, PID: m.PID}) != nil {
				return
			}
		case msgResume:
			if err := n.resume(&m); err != nil {
				return
			}
		case msgPageReq:
			if err := n.servePages(enc, &m); err != nil {
				return
			}
		case msgDone:
			n.finishDeputy(m.PID, m.Checksum)
		default:
			return
		}
	}
}

// servePages answers a deputy page request: every requested page still
// stored here is sent (demand page first, as ordered by the requester) and
// deleted locally — ownership moves with the data (paper §2.2).
func (n *Node) servePages(enc *gob.Encoder, m *wire) error {
	n.mu.Lock()
	proc := n.procs[m.PID]
	n.mu.Unlock()
	if proc == nil {
		return fmt.Errorf("emu: page request for unknown pid %d", m.PID)
	}
	for i, p := range m.Pages {
		data := proc.takePage(p)
		if data == nil {
			continue // already transferred: benign cross-on-the-wire race
		}
		resp := wire{Type: msgPageResp, PID: m.PID, Page: p, Data: data, Demand: i == 0 && m.Demand}
		if err := enc.Encode(&resp); err != nil {
			return err
		}
	}
	// Terminator so the migrant knows the batch is complete.
	return enc.Encode(&wire{Type: msgPageResp, PID: m.PID, Page: -1})
}

// acceptMigration installs an inbound migrant; it stays frozen until the
// origin's resume message arrives.
func (n *Node) acceptMigration(m *wire) {
	p := &Proc{
		node:       n,
		pid:        m.PID,
		totalPages: m.TotalPages,
		pages:      make([][]byte, m.TotalPages),
		program:    m.Program,
		pos:        m.ProgramPos,
		seed:       m.Seed,
		checksum:   m.Checksum,
	}
	for pageNum, data := range m.Carried {
		p.pages[pageNum] = data
	}
	n.mu.Lock()
	n.procs[m.PID] = p
	n.mu.Unlock()
}

// resume starts a previously installed migrant's executor.
func (n *Node) resume(m *wire) error {
	p := n.Proc(m.PID)
	if p == nil {
		return fmt.Errorf("emu: resume of unknown pid %d", m.PID)
	}
	p.originAddr = m.OriginAddr
	if m.Prefetch {
		pre, err := core.New(m.PrefetchCfg, int64(p.totalPages))
		if err != nil {
			return err
		}
		p.pre = pre
	}
	go p.runMigrant()
	return nil
}

// finishDeputy releases deputy state once the migrant reports completion.
func (n *Node) finishDeputy(pid int, checksum uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p := n.procs[pid]; p != nil {
		p.remoteChecksum = checksum
		close(p.deputyDone)
	}
}

// Proc returns the hosted process with the given pid, if any.
func (n *Node) Proc(pid int) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.procs[pid]
}
