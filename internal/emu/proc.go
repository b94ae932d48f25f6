package emu

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/simtime"
	"ampom/internal/trace"
)

// Proc is an emulated process: a cursor walking a trace program, the
// count of references it has executed, and a set of real byte pages, some
// of which may still live at the origin node after a migration.
type Proc struct {
	node       *Node
	pid        int
	totalPages int
	prog       trace.Program
	cur        trace.Cursor
	pos        int // references executed
	seed       uint64

	mu    sync.Mutex
	pages [][]byte // nil entry = page not stored on this node

	// Migrant-side paging state.
	conn     net.Conn
	enc      *gob.Encoder
	dec      *gob.Decoder
	pre      *core.Prefetcher
	rtt      time.Duration
	checksum uint64

	Stats Stats
}

// Stats counts the migrant's paging activity.
type Stats struct {
	FaultRequests int64 // batched requests to the origin (hard faults)
	DemandPages   int64
	PrefetchPages int64
	BytesFetched  int64
	ResidentPages int64 // pages the migrant held when its run ended
}

// Spawn creates a process on node that runs prog, with every page local
// and initialised to a deterministic pattern derived from seed.
func Spawn(node *Node, pid int, totalPages int, prog trace.Program, seed uint64) *Proc {
	p := &Proc{
		node:       node,
		pid:        pid,
		totalPages: totalPages,
		prog:       prog,
		pages:      make([][]byte, totalPages),
		seed:       seed,
		checksum:   fnvOf(seed, nil),
	}
	p.cur.Reset(prog)
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

// fnvOf hashes the little-endian bytes of v followed by data.
func fnvOf(v uint64, data []byte) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
	h.Write(data)
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

// apply executes ref, the process's next reference, against local memory;
// the page must be local. The reference writes when ref.Write is set and
// on every third reference besides, so every program both reads and
// writes; a write mutates the page with a value of the page and the
// reference's index.
func (p *Proc) apply(ref trace.Ref) {
	i := p.pos
	p.pos++
	p.mu.Lock()
	data := p.pages[ref.Page]
	p.mu.Unlock()
	if data == nil {
		panic(fmt.Sprintf("emu: reference to non-local page %d", ref.Page))
	}
	if ref.Write || i%3 == 0 {
		val := byte(int(ref.Page) + i)
		for j := 0; j < len(data); j += 64 {
			data[j] ^= val
		}
		return
	}
	// Reads fold the page into the running checksum so read ordering and
	// page contents both matter for the integrity comparison.
	p.checksum = fnvOf(p.checksum, data[:128])
}

// RunLocal executes the rest of the program entirely locally and returns
// the final memory checksum. It is the never-migrated baseline.
func (p *Proc) RunLocal() uint64 {
	for p.step() {
	}
	return p.MemoryChecksum()
}

// Step executes up to k references locally (pre-migration phase).
func (p *Proc) Step(k int) {
	for i := 0; i < k && p.step(); i++ {
	}
}

// step executes the next reference locally, reporting false once the
// program is done.
func (p *Proc) step() bool {
	ref, ok := p.cur.Next()
	if ok {
		p.apply(ref)
	}
	return ok
}

// MemoryChecksum hashes the read-fold state and every locally stored
// page. After a completed run that touched every page, memory is fully
// local and the checksum is comparable across migrated and non-migrated
// executions; Migrate adds the pages its deputy still stores.
func (p *Proc) MemoryChecksum() uint64 { return fnvOf(p.checksum, nil) ^ p.pagesChecksum() }

// pagesChecksum combines the hashes of the locally stored pages, each
// keyed by its page number, by XOR: the pages of a memory split between a
// migrant and its deputy combine the same way in any order.
func (p *Proc) pagesChecksum() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum uint64
	for i, data := range p.pages {
		if data != nil {
			sum ^= fnvOf(uint64(i), data)
		}
	}
	return sum
}

// MigrateOptions configures a live migration.
type MigrateOptions struct {
	// Prefetch enables AMPoM; otherwise the migrant demand-pages only
	// (the NoPrefetch scheme).
	Prefetch bool
	// Config tunes the prefetcher; zero value takes paper defaults.
	Config core.Config
}

// Migrate freezes the process, ships the freeze payload (PCB and program
// position, the three currently relevant pages, and implicitly the MPT —
// the page-presence map travels as the carried-page keys plus TotalPages),
// and resumes it on the destination node, which demand-pages the rest from
// this node. It blocks until the migrant finishes its program and returns
// the final memory checksum of the process, whose pages the migrant and
// this deputy share, and the migrant's paging statistics, or the error the
// migrant failed with. Once the process is frozen, neither node keeps it:
// the destination releases the migrant when its run ends, and this node
// the deputy when the migration ends, whatever its outcome; p still
// reports the pages the deputy held.
func Migrate(p *Proc, destAddr string, opts MigrateOptions) (uint64, Stats, error) {
	if opts.Prefetch {
		// Validate before freezing so a bad config fails the migration
		// with the process still whole here.
		if _, err := core.New(opts.Config, int64(p.totalPages)); err != nil {
			return 0, Stats{}, err
		}
	}
	conn, err := net.Dial("tcp", destAddr)
	if err != nil {
		return 0, Stats{}, fmt.Errorf("emu: migrate dial: %w", err)
	}
	defer conn.Close()
	freeze := p.freeze(opts)
	defer p.node.release(p)
	if err := gob.NewEncoder(conn).Encode(freeze); err != nil {
		return 0, Stats{}, fmt.Errorf("emu: migrate send: %w", err)
	}
	var done wire
	if err := gob.NewDecoder(conn).Decode(&done); err != nil {
		return 0, Stats{}, fmt.Errorf("emu: migrate: %w", err)
	}
	if done.Err != "" {
		return 0, Stats{}, errors.New(done.Err)
	}
	return done.Checksum ^ p.pagesChecksum(), done.Stats, nil
}

// freeze takes the three currently accessed pages out of the process —
// the next reference's page plus the first and last pages standing in for
// code and stack — and returns the freeze payload carrying them. The
// origin instance becomes the deputy: the payload points the migrant back
// here for remote paging.
func (p *Proc) freeze(opts MigrateOptions) *wire {
	carried := map[int][]byte{}
	carry := func(page int) {
		if data := p.takePage(page); data != nil {
			carried[page] = data
		}
	}
	if ref, ok := p.cur.Next(); ok {
		p.cur.Push(ref)
		carry(int(ref.Page))
	}
	carry(0)
	carry(p.totalPages - 1)
	return &wire{
		Type: msgMigrate, PID: p.pid, TotalPages: p.totalPages,
		Program: p.prog, Pos: p.pos, Seed: p.seed, Carried: carried,
		Checksum:   p.checksum, // the read-fold state travels with the PCB
		OriginAddr: p.node.Addr(), Prefetch: opts.Prefetch, PrefetchCfg: opts.Config,
	}
}

// runMigrant executes the rest of the program at the destination, paging
// missing pages from the origin at originAddr, and returns the final
// memory checksum.
func (p *Proc) runMigrant(originAddr string) (uint64, error) {
	if err := p.dialOrigin(originAddr); err != nil {
		return 0, fmt.Errorf("emu: migrant pager: %w", err)
	}
	defer p.conn.Close()
	for {
		ref, ok := p.cur.Next()
		if !ok {
			return p.MemoryChecksum(), nil
		}
		page := int(ref.Page)
		if ref.Page < 0 || ref.Page >= memory.PageNum(p.totalPages) {
			return 0, fmt.Errorf("emu: reference %d is to page %d of %d", p.pos, ref.Page, p.totalPages)
		}
		if !p.hasPage(page) {
			if err := p.fault(page); err != nil {
				return 0, fmt.Errorf("emu: fault on page %d: %w", page, err)
			}
		}
		p.apply(ref)
	}
}

// dialOrigin opens the paging connection and measures the initial RTT.
func (p *Proc) dialOrigin(addr string) error {
	conn, err := net.Dial("tcp", addr)
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
	if err := p.enc.Encode(&wire{Type: msgPageReq, PID: p.pid, Pages: req}); err != nil {
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
		if resp.Page >= p.totalPages || len(resp.Data) != PageSize {
			return fmt.Errorf("emu: served %d bytes as page %d of %d", len(resp.Data), resp.Page, p.totalPages)
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
