// Package emu is a live, userland emulation of the paper's lightweight
// process migration: real nodes listening on real TCP sockets, hosting
// processes whose memory is real 4 KiB byte pages, migrating by shipping
// the PCB, the three currently accessed pages and the master page table,
// and remote-paging the rest from the origin on demand — with the same
// AMPoM prefetcher (internal/core) deciding the dependent zone from
// measured round-trip times.
//
// A process runs a trace.Program, the workload description the simulator
// walks too. Its code stays where the program is: the freeze carries the
// program value and the index of the next reference, not a listing of the
// references left, and the destination replays a fresh cursor to that
// index.
//
// The discrete-event simulator (internal/migrate) is what reproduces the
// paper's numbers; this package demonstrates the protocol end to end
// outside simulated time, and its tests verify that migration preserves
// memory contents bit-for-bit. Its prefetch estimates are cruder than the
// simulator's: every fault records a CPU utilisation of 1 where the
// simulator's executor samples C_i (§3.2), and the page transfer time is
// guessed as a quarter of the measured round trip where the simulator
// derives it from the link's rate.
package emu

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/trace"
)

// maxPages is the largest footprint a node accepts from a migration, 4 GiB
// of emulated memory: the migrant's page table is allocated from the
// footprint before any page arrives.
const maxPages = 1 << 20

// msgType discriminates wire messages.
type msgType uint8

const (
	msgMigrate  msgType = iota + 1 // origin → destination: freeze payload
	msgPageReq                     // migrant → origin deputy
	msgPageResp                    // origin deputy → migrant
	msgPing                        // RTT probe
	msgPong
	msgDone // destination → origin: migrant finished (checksum) or failed (error)
)

// wire is the single message envelope exchanged between nodes.
type wire struct {
	Type msgType

	// Migration payload: the PCB (pid, footprint, program, reference
	// index, seed and read-fold checksum), the three carried pages, and
	// where and how the migrant pages the rest in.
	PID         int
	TotalPages  int
	Program     trace.Program
	Pos         int
	Seed        uint64
	Carried     map[int][]byte
	OriginAddr  string
	Prefetch    bool
	PrefetchCfg core.Config

	// Paging payload.
	Pages []int  // requested page numbers (demand first)
	Page  int    // served page number
	Data  []byte // served page data

	// Ping payload.
	Token uint64

	// Done payload; the migration payload's Checksum is the read-fold
	// state.
	Checksum uint64
	Stats    Stats
	Err      string
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
			// One migration per connection: the reply ends it.
			done := wire{Type: msgDone, PID: m.PID}
			if sum, st, err := n.acceptMigration(&m); err != nil {
				done.Err = err.Error()
			} else {
				done.Checksum, done.Stats = sum, st
			}
			enc.Encode(&done)
			return
		case msgPageReq:
			if err := n.servePages(enc, &m); err != nil {
				return
			}
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
	for _, p := range m.Pages {
		data := proc.takePage(p)
		if data == nil {
			continue // already transferred: benign cross-on-the-wire race
		}
		resp := wire{Type: msgPageResp, PID: m.PID, Page: p, Data: data}
		if err := enc.Encode(&resp); err != nil {
			return err
		}
	}
	// Terminator so the migrant knows the batch is complete.
	return enc.Encode(&wire{Type: msgPageResp, PID: m.PID, Page: -1})
}

// acceptMigration installs an inbound migrant from its freeze payload and
// runs it to the end of its program, paging from the origin; it returns
// the migrant's final memory checksum and paging statistics, and releases
// the migrant. The payload comes from outside the process, so a malformed
// one is refused before anything is installed.
func (n *Node) acceptMigration(m *wire) (uint64, Stats, error) {
	p, err := n.installMigrant(m)
	if err != nil {
		return 0, Stats{}, err
	}
	defer n.release(p)
	sum, err := p.runMigrant(m.OriginAddr)
	if err != nil {
		return 0, Stats{}, err
	}
	st := p.Stats
	st.ResidentPages = int64(p.LocalPages())
	return sum, st, nil
}

// installMigrant checks a freeze payload, builds the migrant it carries
// and installs it on the node.
func (n *Node) installMigrant(m *wire) (*Proc, error) {
	if m.TotalPages <= 0 || m.TotalPages > maxPages {
		return nil, fmt.Errorf("emu: migrant pid %d has %d pages", m.PID, m.TotalPages)
	}
	if err := m.Program.CheckPages(int64(m.TotalPages)); err != nil {
		return nil, fmt.Errorf("emu: migrant pid %d: %w", m.PID, err)
	}
	p := &Proc{
		node:       n,
		pid:        m.PID,
		totalPages: m.TotalPages,
		prog:       m.Program,
		seed:       m.Seed,
		checksum:   m.Checksum,
		pages:      make([][]byte, m.TotalPages),
	}
	// Replay a fresh cursor to the reference the origin froze at.
	p.cur.Reset(p.prog)
	for ; p.pos < m.Pos; p.pos++ {
		if _, ok := p.cur.Next(); !ok {
			return nil, fmt.Errorf("emu: migrant pid %d froze at reference %d of a %d-reference program", m.PID, m.Pos, p.pos)
		}
	}
	if m.Prefetch {
		pre, err := core.New(m.PrefetchCfg, int64(p.totalPages))
		if err != nil {
			return nil, err
		}
		p.pre = pre
	}
	for page, data := range m.Carried {
		if page < 0 || page >= m.TotalPages || len(data) != memory.PageSize {
			return nil, fmt.Errorf("emu: migrant pid %d carries %d bytes as page %d of %d", m.PID, len(data), page, m.TotalPages)
		}
		p.pages[page] = data
	}
	n.mu.Lock()
	n.procs[m.PID] = p
	n.mu.Unlock()
	return p, nil
}

// release drops p from the node, unless another process has taken its
// pid since.
func (n *Node) release(p *Proc) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.procs[p.pid] == p {
		delete(n.procs, p.pid)
	}
}

// Proc returns the hosted process with the given pid, if any.
func (n *Node) Proc(pid int) *Proc {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.procs[pid]
}
