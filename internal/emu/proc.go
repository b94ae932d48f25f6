package emu

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// Proc is an emulated process: a program counter over a list of page
// operations and a set of real byte pages, some of which may still live at
// the origin node after a migration.
type Proc struct {
	node       *Node
	pid        int
	totalPages int
	program    []Op
	pos        int
	seed       uint64

	mu    sync.Mutex
	pages [][]byte // nil entry = page not stored on this node

	// Migrant-side paging state.
	originAddr string
	conn       net.Conn
	enc        *gob.Encoder
	dec        *gob.Decoder
	pre        *core.Prefetcher
	rtt        time.Duration
	checksum   uint64

	// Deputy-side completion signal.
	deputyDone     chan struct{}
	remoteChecksum uint64

	Stats Stats
}

// Stats counts the migrant's paging activity.
type Stats struct {
	FaultRequests int64 // batched requests to the origin (hard faults)
	DemandPages   int64
	PrefetchPages int64
	BytesFetched  int64
}

// Spawn creates a process on node with every page local and initialised to
// a deterministic pattern derived from seed.
func Spawn(node *Node, pid int, totalPages int, program []Op, seed uint64) *Proc {
	p := &Proc{
		node:       node,
		pid:        pid,
		totalPages: totalPages,
		program:    program,
		pages:      make([][]byte, totalPages),
		seed:       seed,
		deputyDone: make(chan struct{}),
		checksum:   fnvSeed(seed),
	}
	for i := range p.pages {
		p.pages[i] = initialPage(i, seed)
	}
	node.mu.Lock()
	node.procs[pid] = p
	node.mu.Unlock()
	return p
}

// initialPage builds page i's initial contents.
func initialPage(i int, seed uint64) []byte {
	data := make([]byte, PageSize)
	x := seed ^ uint64(i)*0x9e3779b97f4a7c15
	for j := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[j] = byte(x)
	}
	return data
}

func fnvSeed(seed uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// takePage removes and returns a page's data, or nil if not stored here.
func (p *Proc) takePage(page int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if page < 0 || page >= len(p.pages) {
		return nil
	}
	d := p.pages[page]
	p.pages[page] = nil
	return d
}

// hasPage reports whether the page is stored locally.
func (p *Proc) hasPage(page int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages[page] != nil
}

// apply executes one op against local memory; the page must be local.
func (p *Proc) apply(op Op) {
	p.mu.Lock()
	data := p.pages[op.Page]
	p.mu.Unlock()
	if data == nil {
		panic(fmt.Sprintf("emu: op on non-local page %d", op.Page))
	}
	if op.Write {
		for j := 0; j < len(data); j += 64 {
			data[j] ^= op.Val
		}
		return
	}
	// Reads fold the page into the running checksum so read ordering and
	// page contents both matter for the integrity comparison.
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(p.checksum >> (8 * i))
	}
	h.Write(b[:])
	h.Write(data[:128])
	p.checksum = h.Sum64()
}

// RunLocal executes the remaining program entirely locally and returns the
// final memory checksum. It is the never-migrated baseline.
func (p *Proc) RunLocal() uint64 {
	for ; p.pos < len(p.program); p.pos++ {
		p.apply(p.program[p.pos])
	}
	return p.MemoryChecksum()
}

// Step executes up to k ops locally (pre-migration phase).
func (p *Proc) Step(k int) {
	for i := 0; i < k && p.pos < len(p.program); i++ {
		p.apply(p.program[p.pos])
		p.pos++
	}
}

// MemoryChecksum hashes all locally stored pages plus the read-fold state.
// After a completed run that touched every page, memory is fully local and
// the checksum is comparable across migrated and non-migrated executions.
func (p *Proc) MemoryChecksum() uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(p.checksum >> (8 * i))
	}
	h.Write(b[:])
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, data := range p.pages {
		if data != nil {
			h.Write(data)
		} else {
			h.Write([]byte{0xff, 0x00})
		}
	}
	return h.Sum64()
}

// MigrateOptions configures a live migration.
type MigrateOptions struct {
	// Prefetch enables AMPoM; otherwise the migrant demand-pages only
	// (the NoPrefetch scheme).
	Prefetch bool
	// Config tunes the prefetcher; zero value takes paper defaults.
	Config core.Config
}

// Migrate freezes the process, ships the freeze payload (PCB, program
// counter, the three currently relevant pages, and implicitly the MPT — the
// page-presence map travels as the carried-page keys plus TotalPages), and
// resumes it on the destination node, which demand-pages the rest from this
// node. It blocks until the migrant finishes its program and returns the
// migrant's final memory checksum.
func Migrate(p *Proc, destAddr string, opts MigrateOptions) (uint64, error) {
	// Freeze: capture the three "currently accessed" pages — the current
	// op's page plus the first and last pages standing in for code and
	// stack.
	carried := map[int][]byte{}
	carry := func(page int) {
		if data := p.takePage(page); data != nil {
			carried[page] = data
		}
	}
	if p.pos < len(p.program) {
		carry(p.program[p.pos].Page)
	}
	carry(0)
	carry(p.totalPages - 1)

	conn, err := net.Dial("tcp", destAddr)
	if err != nil {
		return 0, fmt.Errorf("emu: migrate dial: %w", err)
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	if err := enc.Encode(&wire{
		Type: msgMigrate, PID: p.pid, TotalPages: p.totalPages,
		ProgramPos: p.pos, Carried: carried, Program: p.program, Seed: p.seed,
		Checksum: p.checksum, // the read-fold state travels with the PCB
	}); err != nil {
		return 0, fmt.Errorf("emu: migrate send: %w", err)
	}
	var ack wire
	if err := dec.Decode(&ack); err != nil {
		return 0, fmt.Errorf("emu: migrate ack: %w", err)
	}

	// The origin instance becomes the deputy; tell the destination to
	// resume the migrant, pointing it back here for remote paging.
	cfg := opts.Config
	if opts.Prefetch {
		// Validate eagerly so a bad config fails the migration, not the
		// remote executor.
		if _, err := core.New(cfg, int64(p.totalPages)); err != nil {
			return 0, err
		}
	}
	if err := enc.Encode(&wire{
		Type: msgResume, PID: p.pid,
		OriginAddr: p.node.Addr(), Prefetch: opts.Prefetch, PrefetchCfg: cfg,
	}); err != nil {
		return 0, fmt.Errorf("emu: resume send: %w", err)
	}

	<-p.deputyDone
	return p.remoteChecksum, nil
}

// runMigrant executes the remaining program at the destination, paging
// missing pages from the origin, then reports completion to the deputy.
func (p *Proc) runMigrant() {
	if err := p.dialOrigin(); err != nil {
		panic(fmt.Sprintf("emu: migrant pager: %v", err))
	}
	defer p.conn.Close()

	for ; p.pos < len(p.program); p.pos++ {
		op := p.program[p.pos]
		if !p.hasPage(op.Page) {
			if err := p.fault(op.Page); err != nil {
				panic(fmt.Sprintf("emu: fault on page %d: %v", op.Page, err))
			}
		}
		p.apply(op)
	}
	sum := p.MemoryChecksum()
	_ = p.enc.Encode(&wire{Type: msgDone, PID: p.pid, Checksum: sum})
}

// dialOrigin opens the paging connection and measures the initial RTT.
func (p *Proc) dialOrigin() error {
	conn, err := net.Dial("tcp", p.originAddr)
	if err != nil {
		return err
	}
	p.conn = conn
	p.enc = gob.NewEncoder(conn)
	p.dec = gob.NewDecoder(conn)

	start := time.Now()
	if err := p.enc.Encode(&wire{Type: msgPing, Token: 1}); err != nil {
		return err
	}
	var pong wire
	if err := p.dec.Decode(&pong); err != nil {
		return err
	}
	p.rtt = time.Since(start)
	if p.rtt <= 0 {
		p.rtt = time.Microsecond
	}
	return nil
}

// fault fetches the faulted page (and, with AMPoM, its dependent zone) from
// the origin in one batched request.
func (p *Proc) fault(page int) error {
	req := []int{page}
	if p.pre != nil {
		p.pre.RecordFault(memory.PageNum(page), simtime.Time(time.Now().UnixNano()), 1)
		a := p.pre.Analyze(core.Estimates{
			RTT:          simtime.FromStd(p.rtt),
			PageTransfer: simtime.FromStd(p.rtt / 4),
		})
		for _, z := range a.Zone { // copied out before the next Analyze reuses it
			if !p.hasPage(int(z)) && int(z) != page {
				req = append(req, int(z))
			}
		}
	}
	p.Stats.FaultRequests++
	if err := p.enc.Encode(&wire{Type: msgPageReq, PID: p.pid, Pages: req, Demand: true}); err != nil {
		return err
	}
	prefetched := 0
	for {
		var resp wire
		if err := p.dec.Decode(&resp); err != nil {
			return err
		}
		if resp.Type != msgPageResp {
			return fmt.Errorf("emu: unexpected %v during paging", resp.Type)
		}
		if resp.Page < 0 {
			break // batch terminator
		}
		p.mu.Lock()
		p.pages[resp.Page] = resp.Data
		p.mu.Unlock()
		p.Stats.BytesFetched += int64(len(resp.Data))
		if resp.Page == page {
			p.Stats.DemandPages++
		} else {
			prefetched++
		}
	}
	p.Stats.PrefetchPages += int64(prefetched)
	if p.pre != nil {
		p.pre.NotePrefetched(prefetched)
	}
	if !p.hasPage(page) {
		return fmt.Errorf("emu: demand page %d not served", page)
	}
	return nil
}

// LocalPages counts pages currently stored on this node.
func (p *Proc) LocalPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, d := range p.pages {
		if d != nil {
			n++
		}
	}
	return n
}
