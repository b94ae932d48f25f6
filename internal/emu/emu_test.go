package emu

import (
	"bytes"
	"encoding/gob"
	"net"
	"strings"
	"testing"

	"ampom/internal/core"
	"ampom/internal/memory"
	"ampom/internal/trace"
)

// twoNodes starts an origin and a destination on the loopback.
func twoNodes(t *testing.T) (*Node, *Node) {
	t.Helper()
	origin, err := Listen("origin", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dest, err := Listen("dest", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		origin.Close()
		dest.Close()
	})
	return origin, dest
}

// sequential sweeps pages [0, pages) in order, passes times.
func sequential(pages, passes int) trace.Program {
	var b trace.Builder
	return b.Program(b.Repeat(passes, trace.Sequential(0, int64(pages), 0, false)))
}

// strided sweeps pages [0, pages) at the given stride, one residue class
// after another, passes times; every other class writes.
func strided(pages, stride, passes int) trace.Program {
	var b trace.Builder
	sweeps := make([]trace.Node, stride)
	for off := range sweeps {
		count := int64((pages - off + stride - 1) / stride)
		sweeps[off] = trace.Strided(memory.PageNum(off), count, int64(stride), 0, off%2 == 0)
	}
	return b.Program(b.Repeat(passes, b.Concat(sweeps...)))
}

// tiled sweeps each block-page tile of [0, pages) in order: its leaf
// lies inside [0, block), and later tiles shift it up.
func tiled(pages, block int) trace.Program {
	var b trace.Builder
	return b.Program(b.Tile(int64(pages), int64(block), trace.Sequential(0, int64(block), 0, false)))
}

// baseline runs the same program without migration and returns the final
// memory checksum.
func baseline(t *testing.T, pages int, program trace.Program, seed uint64) uint64 {
	t.Helper()
	node, err := Listen("solo", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	p := Spawn(node, 1, pages, program, seed)
	return p.RunLocal()
}

func TestMigrationPreservesMemorySequential(t *testing.T) {
	const pages = 128
	program := sequential(pages, 3)
	want := baseline(t, pages, program, 7)

	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 7)
	got, _, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum after migration %x != baseline %x", got, want)
	}
}

func TestMigrationPreservesMemoryNoPrefetch(t *testing.T) {
	const pages = 64
	program := sequential(pages, 2)
	want := baseline(t, pages, program, 9)

	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 9)
	got, _, err := Migrate(p, dest.Addr(), MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum %x != baseline %x", got, want)
	}
}

func TestMigrationPreservesMemoryStrided(t *testing.T) {
	const pages = 96
	program := strided(pages, 7, 5)
	want := baseline(t, pages, program, 13)

	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 13)
	got, _, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum %x != baseline %x", got, want)
	}
}

func TestMidExecutionMigration(t *testing.T) {
	const pages = 64
	program := sequential(pages, 4)
	want := baseline(t, pages, program, 21)

	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 21)
	p.Step(pages + pages/2) // run 1.5 passes locally, then migrate
	got, _, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("checksum %x != baseline %x (mid-execution state lost?)", got, want)
	}
}

func TestPrefetchBatchesRequests(t *testing.T) {
	const pages = 256
	program := sequential(pages, 1)

	origin, dest := twoNodes(t)
	pNo := Spawn(origin, 1, pages, program, 3)
	_, no, err := Migrate(pNo, dest.Addr(), MigrateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noPrefetchReqs := no.FaultRequests

	origin2, dest2 := twoNodes(t)
	pYes := Spawn(origin2, 2, pages, program, 3)
	_, st, err := Migrate(pYes, dest2.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.FaultRequests >= noPrefetchReqs {
		t.Fatalf("prefetch requests %d not below demand-only %d", st.FaultRequests, noPrefetchReqs)
	}
	if st.PrefetchPages == 0 {
		t.Fatal("no pages prefetched on a sequential program")
	}
}

func TestOnlyTouchedPagesMove(t *testing.T) {
	const pages = 200
	// Touch only the first quarter (small working set, §5.6).
	program := sequential(pages/4, 2)
	want := baseline(t, pages, program, 5)

	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 5)
	got, st, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	// The memory is split between the migrant and its deputy.
	if got != want {
		t.Fatalf("checksum %x != baseline %x", got, want)
	}
	moved := int(st.ResidentPages)
	if moved >= pages*3/4 {
		t.Fatalf("moved %d of %d pages for a quarter-size working set", moved, pages)
	}
	// Untouched pages stay at the origin deputy.
	if left := p.LocalPages(); left == 0 {
		t.Fatal("origin retained nothing; working-set advantage lost")
	}
	if moved+p.LocalPages() != pages {
		t.Fatalf("page conservation violated: %d at dest + %d at origin != %d",
			moved, p.LocalPages(), pages)
	}
}

func TestBytesFetchedAccounting(t *testing.T) {
	const pages = 64
	program := sequential(pages, 1)
	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 2)
	_, st, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	fetched := st.DemandPages + st.PrefetchPages
	if st.BytesFetched != fetched*PageSize {
		t.Fatalf("bytes %d != %d pages × %d", st.BytesFetched, fetched, PageSize)
	}
}

func TestCustomPrefetcherConfig(t *testing.T) {
	const pages = 128
	program := sequential(pages, 1)
	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, pages, program, 4)
	cfg := core.Config{WindowLen: 10, DMax: 2, MaxPrefetch: 4, BaselineScore: -1}
	_, st, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	perReq := float64(st.PrefetchPages) / float64(st.FaultRequests)
	if perReq > 4 {
		t.Fatalf("prefetched %.1f pages/request despite cap 4", perReq)
	}
}

func TestSpawnAndRunLocalDeterministic(t *testing.T) {
	program := strided(32, 5, 6)
	a := baseline(t, 32, program, 77)
	b := baseline(t, 32, program, 77)
	if a != b {
		t.Fatal("local runs with same seed diverged")
	}
	c := baseline(t, 32, program, 78)
	if a == c {
		t.Fatal("different seeds produced identical memories")
	}
}

func TestNodeAccessors(t *testing.T) {
	n, err := Listen("x", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.Name() != "x" || n.Addr() == "" {
		t.Fatal("accessors wrong")
	}
	if n.Proc(99) != nil {
		t.Fatal("phantom proc")
	}
}

// TestFreezeSizeIndependentOfProgramLength: the freeze carries the
// program, not a listing of its references, so a run 100 times longer
// freezes into a message of the same size, within 1 KiB of the 12 729 B
// that three carried pages and the PCB took without any program.
func TestFreezeSizeIndependentOfProgramLength(t *testing.T) {
	const pages = 1024
	origin, _ := twoNodes(t)
	var sizes []int
	for i, passes := range []int{2, 200} {
		p := Spawn(origin, i+1, pages, sequential(pages, passes), 3)
		p.Step(pages / 2) // so the current page is a third carried page
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p.freeze(MigrateOptions{Prefetch: true})); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, buf.Len())
	}
	if sizes[0] != sizes[1] || sizes[0] > 12729+1024 {
		t.Fatalf("freeze of %d and %d references: %d and %d B", 2*pages, 200*pages, sizes[0], sizes[1])
	}
}

// sendRaw sends m to addr as one gob message and returns the reply.
func sendRaw(t *testing.T, addr string, m *wire) wire {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(m); err != nil {
		t.Fatal(err)
	}
	var reply wire
	if err := gob.NewDecoder(conn).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestMalformedMigrationFailsItsConnection: a malformed freeze payload is
// refused with an error reply on its own connection, and the node goes on
// to complete a valid migration.
func TestMalformedMigrationFailsItsConnection(t *testing.T) {
	origin, dest := twoNodes(t)
	page := func() []byte { return make([]byte, PageSize) }
	for _, tc := range []struct {
		name, want string
		m          wire
	}{
		{"carried page past the footprint", "carries", wire{TotalPages: 4, Carried: map[int][]byte{99: page()}}},
		{"negative carried page", "carries", wire{TotalPages: 4, Carried: map[int][]byte{-1: page()}}},
		{"short carried page", "carries", wire{TotalPages: 4, Carried: map[int][]byte{1: make([]byte, 10)}}},
		{"no pages", "0 pages", wire{}},
		{"negative footprint", "-3 pages", wire{TotalPages: -3}},
		{"huge footprint", "pages", wire{TotalPages: 1 << 60}},
		{"position past the program", "froze at reference 9", wire{TotalPages: 4, Program: sequential(4, 1), Pos: 9}},
		{"block order past the footprint", "page 4 of 4", wire{TotalPages: 4, Program: trace.BlockPermuted(0, 1<<62, 1, 0, false, 1).Program()}},
		{"block order of 2^33 pages", "page 4 of 4", wire{TotalPages: 4, Program: trace.BlockPermuted(0, 1<<33, 1, 0, false, 1).Program()}},
		{"bad prefetch config", "", wire{TotalPages: 4, Prefetch: true, PrefetchCfg: core.Config{WindowLen: -1}}},
		{"unreachable origin", "migrant pager", wire{TotalPages: 4, OriginAddr: "127.0.0.1:0"}},
		{"reference past the footprint", "page 4 of 4", wire{
			TotalPages: 4, Program: sequential(5, 1), OriginAddr: origin.Addr(),
			Carried: map[int][]byte{0: page(), 1: page(), 2: page(), 3: page()},
		}},
		{"tile shifted past the footprint", "reference 4 is to page 4 of 4", wire{
			TotalPages: 4, Program: tiled(8, 4), OriginAddr: origin.Addr(),
			Carried: map[int][]byte{0: page(), 1: page(), 2: page(), 3: page()},
		}},
	} {
		tc.m.Type, tc.m.PID = msgMigrate, 5
		reply := sendRaw(t, dest.Addr(), &tc.m)
		if reply.Type != msgDone || reply.Err == "" || !strings.Contains(reply.Err, tc.want) {
			t.Errorf("%s: reply %v %q, want an error mentioning %q", tc.name, reply.Type, reply.Err, tc.want)
		}
	}

	const pages = 32
	want := baseline(t, pages, sequential(pages, 2), 11)
	p := Spawn(origin, 1, pages, sequential(pages, 2), 11)
	got, _, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil || got != want {
		t.Fatalf("migration after malformed messages: checksum %x, %v; want %x", got, err, want)
	}
}

// TestBadServedPageFailsMigration: a page the origin serves out of range
// or short fails the migrant's fault, and the migrant reports the error.
func TestBadServedPageFailsMigration(t *testing.T) {
	_, dest := twoNodes(t)
	for _, resp := range []wire{
		{Type: msgPageResp, Page: 99, Data: make([]byte, PageSize)},
		{Type: msgPageResp, Page: 1, Data: make([]byte, 10)},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// A fake origin: it answers the migrant's RTT probe, then its page
		// request with resp.
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
			var m wire
			for dec.Decode(&m) == nil {
				if m.Type == msgPing {
					enc.Encode(&wire{Type: msgPong, Token: m.Token})
				} else {
					enc.Encode(&resp)
				}
			}
		}()
		reply := sendRaw(t, dest.Addr(), &wire{
			Type: msgMigrate, PID: 7, TotalPages: 4, Program: sequential(4, 1), OriginAddr: ln.Addr().String(),
		})
		if !strings.Contains(reply.Err, "served") {
			t.Fatalf("reply error %q, want a refused served page", reply.Err)
		}
	}
}

// TestMigrantErrorReachesMigrate: a migrant that fails reports the error
// back to Migrate, which returns it.
func TestMigrantErrorReachesMigrate(t *testing.T) {
	origin, dest := twoNodes(t)
	p := Spawn(origin, 1, 8, sequential(9, 1), 1) // references page 8 of 8
	if _, _, err := Migrate(p, dest.Addr(), MigrateOptions{}); err == nil || !strings.Contains(err.Error(), "page 8 of 8") {
		t.Fatalf("Migrate returned %v, want the migrant's out-of-range reference", err)
	}
}

// TestMigrationReleasesProcesses: once Migrate returns, neither node holds
// the process, whether the migrant finished or failed: the destination
// dropped the migrant when its run ended, the origin the deputy when the
// migration ended. The deputy's pages stay readable through the caller's
// Proc.
func TestMigrationReleasesProcesses(t *testing.T) {
	origin, dest := twoNodes(t)
	held := func(n *Node) int {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.procs)
	}
	const pages = 64
	p := Spawn(origin, 1, pages, sequential(pages/2, 2), 3)
	p.Step(pages / 4)
	_, st, err := Migrate(p, dest.Addr(), MigrateOptions{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if o, d := held(origin), held(dest); o != 0 || d != 0 {
		t.Fatalf("after a migration the origin holds %d processes and the destination %d", o, d)
	}
	if int(st.ResidentPages)+p.LocalPages() != pages {
		t.Fatalf("%d pages at the destination + %d at the deputy != %d", st.ResidentPages, p.LocalPages(), pages)
	}
	failed := Spawn(origin, 2, 8, tiled(16, 8), 1)
	if _, _, err := Migrate(failed, dest.Addr(), MigrateOptions{}); err == nil {
		t.Fatal("a migrant referencing past its footprint finished")
	}
	if o, d := held(origin), held(dest); o != 0 || d != 0 {
		t.Fatalf("after a failed migration the origin holds %d processes and the destination %d", o, d)
	}
}
